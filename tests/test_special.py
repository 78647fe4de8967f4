import functools
import math
import os
import subprocess
import sys
import threading

import mpmath
import numpy as np
import pytest
import scipy.special as sps

import nipoly
from nipoly import environment, special
from nipoly.environment import UniformField, WeightSpec, omega_grid
from nipoly.errors import DomainError, PrecisionLossError
from nipoly.special import (
    bessel_k0,
    digamma,
    gamma_q,
    inv_gamma_cdf,
    inv_gamma_quantile,
    log_bessel_k0,
    log_binomial,
    log_gamma,
    log_inv_gamma_quantile,
    log_superfactorial,
    trigamma,
)

EULER_GAMMA = 0.5772156649015329


def test_log_gamma_trivial_values():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-13)


def test_log_gamma_half_vs_quadrature():
    # high-precision quadrature of int t^(-1/2) e^(-t) dt
    mpmath.mp.dps = 30
    target = float(mpmath.log(mpmath.quad(lambda t: mpmath.exp(-t) / mpmath.sqrt(t), [0, mpmath.inf])))
    assert log_gamma(0.5) == pytest.approx(target, rel=1e-12)
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-13)


def test_digamma_classical_values():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-12)
    assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-12)


def test_trigamma_series_oracle():
    # sum 1/n^2 with Euler-Maclaurin tail correction as an independent oracle
    m = 200
    tail = 1.0 / m - 1.0 / (2 * m * m) + 1.0 / (6 * m**3)
    target = sum(1.0 / (n * n) for n in range(1, m + 1)) + tail - 1.0 / m / m / m / m
    assert trigamma(1.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-12)
    assert trigamma(1.0) == pytest.approx(target, abs=1e-9)


@pytest.mark.parametrize("x", [0.1, 0.37, 0.5, 1.0, 2.5, 7.7, 11.99, 12.01, 40.0, 1234.5])
def test_recurrences(x):
    assert log_gamma(x + 1.0) - log_gamma(x) == pytest.approx(math.log(x), abs=1e-11)
    assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, abs=1e-11)
    assert trigamma(x + 1.0) - trigamma(x) == pytest.approx(-1.0 / (x * x), abs=1e-11)


def test_against_mpmath_spot_values():
    mpmath.mp.dps = 30
    for x in (0.05, 0.31, 1.5, 3.0, 9.12, 27.5, 300.0):
        assert log_gamma(x) == pytest.approx(float(mpmath.loggamma(x)), rel=1e-12, abs=1e-12)
        assert digamma(x) == pytest.approx(float(mpmath.digamma(x)), rel=1e-12, abs=1e-12)
        assert trigamma(x) == pytest.approx(float(mpmath.polygamma(1, x)), rel=1e-12, abs=1e-12)


def test_log_superfactorial():
    assert log_superfactorial(0) == 0.0
    assert log_superfactorial(1) == pytest.approx(0.0, abs=1e-14)
    assert log_superfactorial(3) == pytest.approx(math.log(2.0), abs=1e-13)
    assert log_superfactorial(5) == pytest.approx(math.log(288.0), rel=1e-13)
    # a whole float keeps its value
    assert log_superfactorial(3.0) == log_superfactorial(3)
    assert log_superfactorial(np.int64(5)) == log_superfactorial(5)


def test_log_superfactorial_recurrence():
    for n in range(1, 30):
        lhs = log_superfactorial(n + 1)
        rhs = log_superfactorial(n) + log_gamma(n + 1.0)
        assert lhs == pytest.approx(rhs, abs=1e-11)


def test_log_binomial():
    assert log_binomial(5, 2).to_float() == pytest.approx(10.0, rel=1e-13)
    assert log_binomial(7, 0).logmag == pytest.approx(0.0, abs=1e-13)
    assert log_binomial(10, 5).to_float() == pytest.approx(252.0, rel=1e-13)
    assert log_binomial(4, 5).sign == 0
    assert log_binomial(4, -1).sign == 0


def test_domain_errors():
    with pytest.raises(DomainError):
        log_gamma(0.0)
    with pytest.raises(DomainError):
        digamma(-1.0)
    with pytest.raises(DomainError):
        trigamma(0.0)
    with pytest.raises(DomainError):
        inv_gamma_quantile(2.0, 0.0)
    with pytest.raises(DomainError):
        inv_gamma_quantile(2.0, 1.0)
    with pytest.raises(DomainError):
        bessel_k0(0.0)


def test_inv_gamma_quantile_mu1_closed_form():
    # F_1(s) = exp(-1/s), so the quantile is -1/ln u.
    for u in (0.01, 0.2, math.exp(-1.0), 0.9, 0.999):
        assert inv_gamma_quantile(1.0, u) == pytest.approx(-1.0 / math.log(u), rel=1e-12)


def test_inv_gamma_quantile_small_u_limit():
    assert inv_gamma_quantile(2.0, 1e-12) < 0.05
    assert inv_gamma_quantile(2.0, 1e-12) > 0.0


def test_inv_gamma_roundtrip_quadrature_oracle():
    # Adaptive quadrature of the density as an oracle for the CDF used in
    # the round trip.
    mpmath.mp.dps = 30

    def cdf_quad(mu, s):
        val = mpmath.quad(
            lambda t: t ** (-mu - 1) * mpmath.exp(-1.0 / t) / mpmath.gamma(mu), [0, s]
        )
        return float(val)

    s = inv_gamma_quantile(2.0, 0.3)
    assert cdf_quad(2.0, s) == pytest.approx(0.3, abs=1e-10)
    s = inv_gamma_quantile(0.5, 0.77)
    assert cdf_quad(0.5, s) == pytest.approx(0.77, abs=1e-10)


@pytest.mark.parametrize("mu", [0.5, 1.0, 2.0, 10.0])
def test_quantile_roundtrip_grid(mu):
    us = [0.001 + 0.998 * i / 40 for i in range(41)]
    prev = 0.0
    for u in us:
        s = inv_gamma_quantile(mu, u)
        assert abs(inv_gamma_cdf(mu, s) - u) < 1e-10
        assert s > prev  # monotone in u
        prev = s


def _log_quantile_mpmath(mu, u, start):
    """-log y with Q(mu, y) = u at 40 digits: the secant method in t = log y
    on log P (u > 1/2) or log Q, started at log zeta = start.  The root is
    unique, and findroot raises unless the residual vanishes, so the start
    only sets the cost."""
    with mpmath.workdps(40):
        mu, u = mpmath.mpf(mu), mpmath.mpf(u)

        def log_p_q(t):
            y = mpmath.exp(t)
            if y < mu + 1:
                p = mpmath.gammainc(mu, 0, y, regularized=True)
                return mpmath.log(p), mpmath.log1p(-p)
            q = mpmath.gammainc(mu, y, mpmath.inf, regularized=True)
            return mpmath.log1p(-q), mpmath.log(q)

        if u > 0.5:
            f = lambda t: log_p_q(t)[0] - mpmath.log1p(-u)
        else:
            f = lambda t: log_p_q(t)[1] - mpmath.log(u)
        return float(-mpmath.findroot(f, (-start, -start + 1e-3), solver="secant"))


def test_inv_gamma_quantile_small_mu():
    # the quantile is e^693.72 here, and past the float range from u = 0.6
    got = math.log(inv_gamma_quantile(1e-3, 0.5))
    assert got == pytest.approx(_log_quantile_mpmath(1e-3, 0.5, got), rel=1e-12)
    assert got == pytest.approx(693.7236, abs=1e-4)
    with pytest.raises(DomainError):
        inv_gamma_quantile(1e-3, 0.9)


def test_log_inv_gamma_quantile_matches_mpmath():
    # u >= 0.5 at mu = 1e-3 and u >= 0.999 at mu = 0.01 take the tiny-mu
    # series branch
    us = np.array([1e-12, 1e-6, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999, 1.0 - 1e-6])
    for mu in (1e-3, 0.01, 0.5, 2.0, 1000.0):
        got = log_inv_gamma_quantile(mu, us)
        assert got.shape == us.shape
        ref = np.array([_log_quantile_mpmath(mu, u, g) for u, g in zip(us, got)])
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


def _log_quantile_mpmath_upper(mu, u, start):
    """-log y with Q(mu, y) = u at 40 digits, by the secant method in
    t = log y on Q alone; mpmath's lower series does not converge at
    mu ~ 1e6."""
    with mpmath.workdps(40):
        mu, u = mpmath.mpf(mu), mpmath.mpf(u)
        f = lambda t: mpmath.gammainc(mu, mpmath.exp(t), mpmath.inf, regularized=True) - u
        return float(-mpmath.findroot(f, (-start, -start + 1e-6), solver="secant"))


def test_log_inv_gamma_quantile_huge_mu():
    # scipy's inverse misses by 2.4e-9 at mu = 1e6 and 7.3e-8 at mu = 2e6
    # from s = ndtri(u) = 4.505 on: there the quantile raises, and it stays
    # within 1e-12 of mpmath everywhere else
    for mu, tail_ok in ((4e5, True), (2e6, False)):
        for s in (-8.0, -4.5, -1.0, 0.0, 2.0, 4.5, 4.505, 6.0, 8.0):
            u = float(sps.ndtr(s))
            if s > 4.5 and not tail_ok:
                with pytest.raises(DomainError):
                    log_inv_gamma_quantile(mu, u)
                continue
            got = float(log_inv_gamma_quantile(mu, u))
            assert abs(got - _log_quantile_mpmath_upper(mu, u, got)) <= 1e-12, (mu, s)
    with pytest.raises(DomainError):
        log_inv_gamma_quantile(2e6, np.array([0.3, sps.ndtr(6.0)]))
    with pytest.raises(DomainError):
        inv_gamma_quantile(2e6, float(sps.ndtr(4.505)))


_TESTED_MU = [1e-3, 0.01, 0.5, 2.0, 5.0, 1000.0, 4e5]


def _interval_edges(base, j):
    # v at the left edge of interval j of each side of a table at base
    return ((base + np.asarray(j, dtype=np.int64)) << special._SHIFT).view(np.float64)


@pytest.mark.parametrize("mu", _TESTED_MU)
def test_quantile_table_matches_mpmath(mu):
    # v = min(u, 1 - u) at the edges and midpoints of every 33rd table
    # interval (so the sub-interval of the binade varies) on both sides,
    # u = 1/2 and its neighbours, and v just below the table, which takes
    # the exact route; 1 - v is exact for v >= 2^-53
    base, coef = special._quantile_table(mu)
    j = np.arange(0, coef.shape[1] // 2, 33)
    left, right = _interval_edges(base, j), _interval_edges(base, j + 1)
    v = np.concatenate([left, left + 0.5 * (right - left)])
    first = float(_interval_edges(base, 0))
    u = np.concatenate(
        [v, 1.0 - v[v >= 2.0**-53], [0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), np.nextafter(first, 0.0)]]
    )
    got = log_inv_gamma_quantile(mu, u)
    # mpmath's lower series does not converge at large mu
    oracle = _log_quantile_mpmath_upper if mu > 1000.0 else _log_quantile_mpmath
    ref = np.array([oracle(mu, a, g) for a, g in zip(u, got)])
    assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("mu", [0.5, 2.0, 1000.0])
def test_quantile_table_refuses_noisy_knots(monkeypatch, mu):
    # knots off the exact route by 1e-10 miss it at the interval edges
    exact = special._log_inv_gamma_quantile_v
    monkeypatch.setattr(
        special,
        "_log_inv_gamma_quantile_v",
        lambda m, v, upper: exact(m, v, upper) + 1e-10 * np.sin(1e4 * np.log(v)),
    )
    with pytest.raises(PrecisionLossError):
        special._quantile_table.__wrapped__(mu)


@pytest.mark.parametrize("mu", _TESTED_MU + [2e6])
def test_quantile_table_build_stays_within_10000_exact_points(monkeypatch, mu):
    # the build's cost is its exact-route evaluations, knots and edges
    exact = special._log_inv_gamma_quantile_v
    points = []

    def counting(m, v, upper):
        points.append(np.size(v))
        return exact(m, v, upper)

    monkeypatch.setattr(special, "_log_inv_gamma_quantile_v", counting)
    special._quantile_table.__wrapped__(mu)
    assert 0 < sum(points) <= 10000


def _patched_uniform(monkeypatch, edit):
    # every block's uniforms pass through edit(u, x1) before the law's
    # transform: a site's value there is set from its own coordinate, so it
    # does not depend on the blocking
    private = environment._uniform

    def spy(seed, x1, x2, out=None):
        u = np.asarray(private(seed, x1, x2, out))
        edit(u, np.broadcast_to(x1, np.shape(u)))
        return u

    monkeypatch.setattr(environment, "_uniform", spy)
    return spy


@pytest.mark.parametrize("mu", [1e-3, 2.0, 1000.0, 2e6])
def test_log_inv_gamma_quantile_refuses_u_outside_the_open_unit_interval(mu, monkeypatch):
    bad = [0.0, -0.0, 1.0, -0.25, 1.5, -5e-324, float("nan"), float("inf"), float("-inf")]
    for u in bad:
        with pytest.raises(DomainError):
            log_inv_gamma_quantile(mu, u)
    # two chunks and more run as blocks; the error comes from the block
    # that holds the bad site and reaches the caller
    n = 2 * environment._CHUNK + 77
    spec = WeightSpec("loggamma", mu=mu)
    for u in bad:
        for at in (0, environment._CHUNK + 5, n - 1):

            def edit(v, x1):
                v[...] = 0.3
                v[x1 == at] = u

            _patched_uniform(monkeypatch, edit)
            with pytest.raises(DomainError):
                omega_grid(UniformField(1), spec, np.arange(n), 0)
            with pytest.raises(DomainError):
                omega_grid([1], spec, np.arange(n), 0)


def test_log_inv_gamma_quantile_refuses_nonpositive_mu():
    for mu in (0.0, -1.0, float("nan")):
        with pytest.raises(DomainError):
            log_inv_gamma_quantile(mu, 0.5)


def _one_evaluation(mu, u):
    # the whole input through the elementwise body in one call
    flat = np.ravel(u)
    out = np.empty(flat.shape)
    special._log_inv_gamma_quantile_body(mu, flat, out)
    return out.reshape(np.shape(u))


def _chunk_shapes(c):
    # 0-d, one site, one chunk - 1, two chunks - 1, two chunks, and
    # non-multiples of the chunk in 1, 2 and 3 dimensions
    return [(), (1,), (c - 1,), (2 * c - 1,), (2 * c,), (3 * c + 77,), (2, c), (c // 4 + 1, 9), (3, 5, c // 7 + 1)]


@pytest.mark.parametrize("mu", [1e-3, 2.0, 2000.0])
@pytest.mark.parametrize(
    "chunk, shapes",
    [
        # 1001 sites start the chunks off the SIMD alignment
        (1001, _chunk_shapes(1001)),
        (environment._CHUNK, [(2 * environment._CHUNK + 777,), (257, 513)]),
    ],
    ids=["chunk1001", "chunk65536"],
)
def test_chunked_quantile_bitwise_equals_one_evaluation(monkeypatch, mu, chunk, shapes):
    # omega_grid's blocks give the quantile body on the whole input, bit for
    # bit; every 500th site (by x1, the flat index) sits at
    # s = ndtri(1e-18) = -8.76, beyond the table, and takes the exact route
    def edit(u, x1):
        u[x1 % 500 == 0] = 1e-18

    uniform = _patched_uniform(monkeypatch, edit)
    monkeypatch.setattr(environment, "_CHUNK", chunk)
    spec = WeightSpec("loggamma", mu=mu)
    for shape in shapes:
        x1 = np.arange(int(np.prod(shape))).reshape(shape)
        for x in (x1, x1.T):  # the transpose is not contiguous
            got = omega_grid(UniformField(91), spec, x, 7)
            ref = _one_evaluation(mu, uniform(91, x, 7))
            assert got.shape == ref.shape == x.shape
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref)


def test_concurrent_callers_build_equal_tables(monkeypatch):
    # more caller threads than cores race on the table of a new mu: any
    # table built twice must be identical, and every result must stay
    # bitwise exact
    tables = []
    build = special._quantile_table.__wrapped__

    @functools.lru_cache(maxsize=64)
    def recording_table(mu):
        tables.append(build(mu))
        return tables[-1]

    monkeypatch.setattr(environment, "_CHUNK", 1001)
    monkeypatch.setattr(special, "_quantile_table", recording_table)
    spec = WeightSpec("loggamma", mu=2.0)
    results = [None] * 8

    def call(i):
        results[i] = omega_grid(UniformField(i), spec, np.arange(5000), 3)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(i,)) for i in range(len(results))]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in callers)
    finally:
        sys.setswitchinterval(interval)
    assert tables
    for base, coef in tables:
        assert base == tables[0][0]
        assert np.array_equal(coef, tables[0][1])
    for i, got in enumerate(results):
        assert np.array_equal(got, _one_evaluation(2.0, environment._uniform(i, np.arange(5000), 3)))


def test_small_work_starts_no_thread():
    # in a fresh interpreter: importing nipoly, a free energy at N = 8 and
    # a 1000 x 1000 grid leave the main thread alone
    code = (
        "import threading, numpy as np\n"
        "from nipoly.environment import UniformField, WeightSpec, omega_grid\n"
        "from nipoly.polymer import free_energy_mc\n"
        "free_energy_mc(WeightSpec('loggamma', mu=2.0), 1.0, 1.0, 8, 3, 1)\n"
        "print(threading.active_count())\n"
        "x = np.arange(1000)\n"
        "omega_grid(UniformField(1), WeightSpec('loggamma', mu=2.0), x[:, None], x)\n"
        "print(threading.active_count())\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(nipoly.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert [int(v) for v in out.stdout.split()] == [1, 1]


def test_gamma_q_consistency():
    mpmath.mp.dps = 30
    for a, x in ((0.5, 0.2), (1.0, 1.0), (2.0, 5.0), (10.0, 3.0)):
        target = float(mpmath.gammainc(a, x, mpmath.inf, regularized=True))
        assert gamma_q(a, x) == pytest.approx(target, rel=1e-11, abs=1e-13)
    # continued fraction accumulates O(sqrt(a)) rounding at very large shape
    target = float(mpmath.gammainc(40000.0, 40100.0, mpmath.inf, regularized=True))
    assert gamma_q(40000.0, 40100.0) == pytest.approx(target, rel=1e-9)


def test_gamma_q_huge_a_band():
    # scipy's series below a - 4.5 sqrt(a) is 3.8e-11 off at a = 1e6 and
    # 1.6e-9 at 2e6: there gamma_q and inv_gamma_cdf raise, and above the
    # edge they stay within 1e-12 of mpmath
    for a in (1e6, 2e6):
        root = math.sqrt(a)
        for s in (-5.0, -4.5, -4.41):
            with pytest.raises(DomainError):
                gamma_q(a, a + s * root)
            with pytest.raises(DomainError):
                inv_gamma_cdf(a, 1.0 / (a + s * root))
        with pytest.raises(DomainError):
            gamma_q(a, 1.0)
        with mpmath.workdps(30):
            for s in (-4.4, -4.0, 0.0, 4.5, 10.0):
                x = a + s * root
                ref = mpmath.gammainc(a, x, mpmath.inf, regularized=True)
                assert float(abs(gamma_q(a, x) - ref) / ref) <= 1e-12, (a, s)
    assert gamma_q(4e5, 1.0) == 1.0


@pytest.mark.parametrize("gap", [-60.0, 0.0, 11.80, 11.833, 20.0, 100.0, 1400.0])
def test_log_bessel_k0_matches_mpmath(gap):
    # the Whittaker density's argument 2 e^(gap / 2); K0 itself is
    # subnormal from a gap of about 11.80 and 0.0 from 11.833
    x = 2.0 * math.exp(0.5 * gap)
    with mpmath.workdps(40):
        want = mpmath.log(mpmath.besselk(0, x))
        assert abs((log_bessel_k0(x) - want) / want) <= 1e-14
    assert log_bessel_k0(math.inf) == -math.inf
    with pytest.raises(DomainError):
        log_bessel_k0(0.0)


def test_bessel_k0_quadrature_oracle():
    # integrand is below 1e-300 beyond t = 15 for every x tested here
    mpmath.mp.dps = 30
    for x in (1.0, 2.0, 0.3):
        target = float(mpmath.quad(lambda t: mpmath.exp(-x * mpmath.cosh(t)), [0, 15]))
        assert bessel_k0(x) == pytest.approx(target, abs=1e-10)
        assert bessel_k0(x) == pytest.approx(float(mpmath.besselk(0, x)), abs=1e-10)
    assert bessel_k0(2.0) == pytest.approx(0.1138938727495334, abs=1e-10)
    assert bessel_k0(1.0) == pytest.approx(0.4210244382407083, abs=1e-10)
    assert bessel_k0(3.0) < bessel_k0(2.0)


@pytest.mark.parametrize(
    "call, exc, match",
    [
        pytest.param(lambda: special.log_factorial(-1), DomainError, "requires n >= 0", id="log_factorial"),
        pytest.param(lambda: log_superfactorial(-1), DomainError, "requires n >= 0", id="log_superfactorial"),
        pytest.param(lambda: log_superfactorial(math.nan), DomainError, "requires n >= 0", id="log_superfactorial_nan"),
        pytest.param(lambda: log_superfactorial(math.inf), DomainError, "requires n >= 0", id="log_superfactorial_inf"),
        # a fractional n once summed log j! up to its ceiling: H(2.5) read H(3)
        pytest.param(lambda: log_superfactorial(2.5), DomainError, "integral", id="log_superfactorial_fraction"),
        pytest.param(lambda: log_superfactorial(0.5), DomainError, "integral", id="log_superfactorial_half"),
        pytest.param(lambda: gamma_q(0.0, 1.0), DomainError, "requires a > 0", id="gamma_q_a"),
        pytest.param(lambda: gamma_q(1.0, -1.0), DomainError, "requires x >= 0", id="gamma_q_x"),
        pytest.param(lambda: inv_gamma_cdf(0.0, 1.0), DomainError, "requires mu > 0", id="inv_gamma_cdf"),
        pytest.param(lambda: inv_gamma_quantile(-1.0, 0.5), DomainError, "requires mu > 0", id="inv_gamma_quantile"),
    ],
)
def test_special_refusals_are_typed(call, exc, match):
    with pytest.raises(exc, match=match):
        call()


def test_inv_gamma_cdf_is_zero_at_the_origin():
    assert inv_gamma_cdf(2.0, 0.0) == 0.0

"""Scalar special functions: thin wrappers over scipy.special.

Each wrapper checks its domain, raising DomainError, and returns a Python
float.  The inverse-gamma quantile has one owner, log_inv_gamma_quantile,
which the scalar quantile, the environment and the fluctuation sampler all
call.  For each mu it evaluates a cached piecewise-polynomial table indexed
by the float bits of v = min(u, 1 - u): the exponent and the top mantissa
bits of v pick the interval, the low bits place v in it, and no
transcendental is evaluated per site.  The table is built from scipy's
incomplete-gamma inverses and checked against them; v below the table
takes those inverses directly.  Every input size takes this one route,
on the calling thread; the environment applies the quantile body to its
blocks of sites.  Every step is elementwise, so the result is bitwise
independent of the batch and of the blocking.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np
import scipy.special as sps

from .errors import DomainError, PrecisionLossError
from .logspace import LogSigned

_LOG_DBL_MAX = math.log(sys.float_info.max)


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if not x > 0.0:
        raise DomainError("log_gamma requires x > 0, got %r" % (x,))
    return float(sps.gammaln(x))


def digamma(x: float) -> float:
    """psi_0(x) = Gamma'(x)/Gamma(x) for x > 0."""
    if not x > 0.0:
        raise DomainError("digamma requires x > 0, got %r" % (x,))
    return float(sps.psi(x))


def trigamma(x: float) -> float:
    """psi_1(x) = psi_0'(x) for x > 0, as the Hurwitz zeta(2, x)."""
    if not x > 0.0:
        raise DomainError("trigamma requires x > 0, got %r" % (x,))
    return float(sps.zeta(2.0, x))


def log_factorial(n: int) -> float:
    """log n! for a whole number n (3 and 3.0 alike); any other n raises
    DomainError."""
    if not (0 <= n < math.inf and n == int(n)):
        raise DomainError("log_factorial requires n >= 0, finite and integral, got %r" % (n,))
    return float(sps.gammaln(n + 1.0))


def log_superfactorial(n: int) -> float:
    """log of H(n) = product of j! for j = 0 .. n-1; H(0) = H(1) = 1.  n is a
    whole number (3 and 3.0 alike); any other n raises DomainError."""
    if not (0 <= n < math.inf and n == int(n)):
        raise DomainError("log_superfactorial requires n >= 0, finite and integral, got %r" % (n,))
    return float(sps.gammaln(np.arange(1.0, n + 1.0)).sum())


def log_binomial(n: int, k: int) -> LogSigned:
    """C(n, k) as a LogSigned value; exactly zero outside 0 <= k <= n."""
    if k < 0 or k > n:
        return LogSigned.zero()
    return LogSigned(1, log_factorial(n) - log_factorial(k) - log_factorial(n - k))


# Against a 25-digit mpmath scan over s = ndtri(u) in [-8, 8], gammainccinv
# stays within 1e-12 in log up to mu = 4.05e5, and for s <= 4.5 up to at
# least mu = 1e10.  Beyond, its incomplete gamma leaves the uniform
# asymptotic band |y - mu| < 4.5 sqrt(mu) and its series stops short:
# 2.4e-9 off at mu = 1e6, 7.3e-8 at 2e6 (s = 4.505).  gammaincc itself,
# against 30-digit mpmath, is 3.8e-11 off at a = 1e6 and 1.6e-9 at 2e6
# (x = a - 4.5 sqrt(a)), and within 3.1e-14 for x >= a - 4.4 sqrt(a) at
# a in {4e5, 1e6, 2e6, 1e7}; the 0.1 sqrt(a) margin keeps clear of
# scipy's switch.
_MU_ACCURATE = 4e5
_X_BAND = 4.4


def gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) for a > 0, x >= 0; raises
    DomainError for a > 4e5 and x < a - 4.4 sqrt(a), where scipy is off."""
    if not a > 0.0:
        raise DomainError("gamma_q requires a > 0")
    if not x >= 0.0:
        raise DomainError("gamma_q requires x >= 0, got %r" % (x,))
    if a > _MU_ACCURATE and x < a - _X_BAND * math.sqrt(a):
        raise DomainError(
            "gamma_q: a = %r > %g is inaccurate for x < a - %g sqrt(a)" % (a, _MU_ACCURATE, _X_BAND)
        )
    return float(sps.gammaincc(a, x))


def inv_gamma_cdf(mu: float, s: float) -> float:
    """CDF F_mu(s) of the inverse-gamma law with density s^(-mu-1) e^(-1/s) / Gamma(mu)."""
    if not mu > 0.0:
        raise DomainError("inv_gamma_cdf requires mu > 0")
    if math.isnan(s):
        raise DomainError("inv_gamma_cdf requires s to be a number, got nan")
    if s <= 0.0:
        return 0.0
    return gamma_q(mu, 1.0 / s)


_S_BAND = 4.5
_U_BAND = float(sps.ndtr(_S_BAND))


def _log_from_root(mu: float, y, log_p):
    # -log y, where P(mu, y) = e^log_p; tiny mu pushes y below float range,
    # and there the leading series P(mu, y) ~ y^mu / Gamma(mu + 1) gives log y
    tiny = ~(y > 1e-280)
    with np.errstate(divide="ignore"):
        direct = -np.log(y)
    series = -(log_p + sps.gammaln(mu + 1.0)) / mu
    return np.where(tiny, series, direct)


def _log_inv_gamma_quantile_v(mu: float, v, upper: bool):
    """log F_mu^{-1}(u) from v = min(u, 1 - u), straight from scipy: the
    root of Q(mu, y) = v for u <= 1/2, and of P(mu, y) = v for u > 1/2
    (upper), so that u is never rounded near 1.  The table's knots, its
    check and the sites below it all take this route."""
    if upper:
        return _log_from_root(mu, sps.gammaincinv(mu, v), np.log(v))
    return _log_from_root(mu, sps.gammainccinv(mu, v), np.log1p(-v))


# The quantile table is indexed by the float bits of v = min(u, 1 - u), which
# is exact for u >= 1/2.  Each binade [2^e, 2^(e+1)) of v is split into
# 2^_SUB_BITS equal intervals, so bits(v) >> _SHIFT numbers the interval and
# the low _SHIFT bits place v in it, both exactly.  Each side runs from
# v = 2^-54, the least v of a hash uniform, to the interval that opens at
# v = 1/2; smaller v take the exact route.  Above mu = 4e5 both sides start
# at the first interval edge past the refusal edge v = 1 - ndtr(4.5), since
# knots below it would spoil the interval holding it.
_SUB_BITS = 3
_SHIFT = 52 - _SUB_BITS
_V_LOW = 2.0**-54
_DEGREE = 8


def _bits(v: float) -> int:
    return int(np.float64(v).view(np.int64))


def _from_bits(bits: int) -> float:
    return float(np.int64(bits).view(np.float64))


_ONE_BITS = _bits(1.0)
_TOP = _bits(0.5) >> _SHIFT


def _chebyshev_interpolation(degree: int):
    """The degree + 1 Chebyshev points x_j = cos(theta_j); the matrix taking
    values at them to the Chebyshev coefficients of their interpolant,
    (2/(degree + 1)) sum_j cos(k theta_j) f_j halved at k = 0; and the
    matrix whose column k holds the monomial coefficients of T_k.  Built
    from math.cos and used by plain ufuncs: a LAPACK fit would add a
    megabyte of code pages to every process that builds a table."""
    m = degree + 1
    theta = [math.pi * (j + 0.5) / m for j in range(m)]
    to_cheb = np.array([[2.0 / m * math.cos(k * t) for t in theta] for k in range(m)])
    to_cheb[0] *= 0.5
    to_mono = np.zeros((m, m))
    to_mono[0, 0] = to_mono[1, 1] = 1.0
    for k in range(2, m):  # T_k = 2 x T_(k-1) - T_(k-2)
        to_mono[1:, k] = 2.0 * to_mono[:-1, k - 1]
        to_mono[:, k] -= to_mono[:, k - 2]
    return np.array([math.cos(t) for t in theta]), to_cheb, to_mono


_NODES, _VALUES_TO_CHEB, _CHEB_TO_MONO = _chebyshev_interpolation(_DEGREE)
_TABLE_TOL = 1e-12


def _times(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    # matrix @ rows, one row of rows at a time: numpy's matmul would load BLAS
    out = np.zeros((matrix.shape[0], rows.shape[1]))
    for j, row in enumerate(rows):
        out += matrix[:, j, None] * row
    return out


@functools.lru_cache(maxsize=64)
def _quantile_table(mu: float):
    """(base, coef) of the quantile table at mu.  v = min(u, 1 - u) at or
    above float(base << _SHIFT) lies on interval j = (bits(v) >> _SHIFT) -
    base of its side, at x in [-1, 1) given by the low _SHIFT bits; there
    log F_mu^{-1}(u) is sum_i coef[i, 2 j + s] x^i, with s = 1 for u > 1/2
    and 0 otherwise: the interpolant at _DEGREE + 1 Chebyshev nodes in v.
    Those include the midpoints, so the build checks each interpolant at
    both interval edges against the exact route and raises
    PrecisionLossError beyond 1e-12 max(1, |value|), or for a NaN miss.
    A mu whose quantiles leave the float range (log zeta overflows below
    mu of about 2e-307) raises DomainError."""
    lo = 1.0 - _U_BAND if mu > _MU_ACCURATE else _V_LOW
    base = -(-_bits(lo) >> _SHIFT)  # the first interval edge at or above lo
    edges = (np.arange(base, _TOP + 2, dtype=np.int64) << _SHIFT).view(np.float64)
    v = (edges[:-1] + 0.5 * (edges[1:] - edges[:-1]) * (_NODES[:, None] + 1.0)).ravel()
    coef = np.empty((_DEGREE + 1, 2 * (edges.size - 1)))
    misses = []
    for side in (0, 1):
        with np.errstate(over="ignore"):  # refused below
            knots = _log_inv_gamma_quantile_v(mu, v, side).reshape(_DEGREE + 1, -1)
            exact = _log_inv_gamma_quantile_v(mu, edges, side)
        if not (np.all(np.isfinite(knots)) and np.all(np.isfinite(exact))):
            raise DomainError("log_inv_gamma_quantile: mu = %r gives quantiles beyond the float range" % (mu,))
        c = _times(_CHEB_TO_MONO, _times(_VALUES_TO_CHEB, knots))
        tol = _TABLE_TOL * np.maximum(1.0, np.abs(exact))
        misses.append(np.abs(np.polynomial.polynomial.polyval(-1.0, c) - exact[:-1]) / tol[:-1])
        misses.append(np.abs(np.polynomial.polynomial.polyval(1.0, c) - exact[1:]) / tol[1:])
        coef[:, side::2] = c
    worst = float(np.max(np.concatenate(misses)))  # NaN if any miss is NaN
    if not worst <= 1.0:
        raise PrecisionLossError(
            "log_inv_gamma_quantile: table at mu = %r misses the exact route by %.3g tolerances"
            % (mu, worst)
        )
    coef.flags.writeable = False
    return base, coef


def _log_inv_gamma_quantile_body(mu: float, u: np.ndarray, out: np.ndarray) -> None:
    """Write log F_mu^{-1}(u) into out, for flat float64 u and out alike:
    Horner's rule on the table, and the exact route below it.  Raises
    DomainError for u outside (0, 1), NaN included, and for mu > 4e5 and
    u > ndtr(4.5), where scipy's inverse is not accurate."""
    if mu > _MU_ACCURATE and np.any(u > _U_BAND):
        raise DomainError(
            "log_inv_gamma_quantile: mu = %r > %g is inaccurate for u > ndtr(4.5)"
            % (mu, _MU_ACCURATE)
        )
    base, coef = _quantile_table(mu)
    v = np.subtract(1.0, u)
    np.minimum(u, v, out=v)  # v = min(u, 1 - u); NaN stays NaN
    if not v.min(initial=0.5) > 0.0:  # NaN, u <= 0 or u >= 1
        raise DomainError("log_inv_gamma_quantile requires 0 < u < 1, got %r" % (float(u[~(v > 0.0)][0]),))
    # the masks come from v, since a clipped gather cannot flag a wrong index
    tail = np.flatnonzero(v < _from_bits(base << _SHIFT))
    tail_v = v[tail]
    # Integer steps only, with no bit mask and no bool-to-int cast: numpy
    # pages in 64 KB of code for each loop kind a process has not yet run.
    bits = v.view(np.int64)
    k = bits >> _SHIFT
    term = np.left_shift(k, _SHIFT)
    bits -= term  # the low _SHIFT bits of v
    bits <<= _SUB_BITS
    bits += _ONE_BITS  # v holds 1 + (low bits) 2^-_SHIFT, in [1, 2)
    x = v
    x *= 2.0
    x -= 3.0
    side = term
    np.subtract(0.5, u, out=side.view(np.float64))
    side >>= 63  # the sign bit: -1 for u > 1/2, else 0
    k -= base
    k <<= 1
    k -= side  # column 2 j + s of coef
    term = term.view(np.float64)
    np.take(coef[-1], k, out=out, mode="clip")
    for row in coef[-2::-1]:
        out *= x
        out += np.take(row, k, out=term, mode="clip")
    if tail.size:
        upper = u[tail] > 0.5
        for s, pick in ((0, ~upper), (1, upper)):
            out[tail[pick]] = _log_inv_gamma_quantile_v(mu, tail_v[pick], s)


def log_inv_gamma_quantile(mu: float, u):
    """log F_mu^{-1}(u), elementwise over u in (0, 1), for mu > 0.

    1/zeta is Gamma(mu, 1), so log zeta = -log y with Q(mu, y) = u.  For
    each mu, a table is built once (8 502 exact evaluations, 6-14 ms on one
    core of a Xeon VM; cached for the last 64 mu).  It is indexed by the
    float bits of v = min(u, 1 - u), with 1 - u exact for u >= 1/2: each
    binade of v from 2^-54 (the least v of a hash uniform) up to 1/2 is
    split into 8 equal intervals, one set for u <= 1/2 and one for u > 1/2,
    and on each interval a degree-8 polynomial in the local coordinate,
    read exactly off the low mantissa bits, interpolates the exact route at
    Chebyshev nodes.  The
    exact route is scipy's gammainccinv at v for u <= 1/2, and gammaincinv
    on P(mu, y) = v for u > 1/2, so u is never rounded near 1; tiny mu
    pushes y below float range, and there the leading series
    P(mu, y) ~ y^mu / Gamma(mu + 1) gives log y directly.  v below 2^-54
    takes the exact route.  The table is within 1e-13 max(1, |value|) of
    40-digit mpmath (tested for mu from 1e-3 to 4e5), and its build raises
    PrecisionLossError if an interval misses the exact route by more than
    1e-12 max(1, |value|) at either edge.

    Every input size, scalars included, takes the same route, so a site's
    value does not depend on the batch it is computed in.
    environment.omega_grid runs the same body in blocks of sites.
    Raises DomainError for mu outside (0, inf) (NaN included), for a mu
    whose quantiles leave the float range (below about 2e-307), for u
    outside (0, 1) (NaN included), and for mu > 4e5 and u > ndtr(4.5),
    where scipy's inverse is not accurate; above mu = 4e5 the table starts
    at the first interval edge past v = 1 - ndtr(4.5), and smaller v take
    the exact route.
    """
    mu = float(mu)
    if not 0.0 < mu < math.inf:
        raise DomainError("log_inv_gamma_quantile requires mu > 0, finite, got %r" % (mu,))
    flat = np.asarray(u, dtype=np.float64).ravel()
    out = np.empty(flat.shape)
    _log_inv_gamma_quantile_body(mu, flat, out)
    return out.reshape(np.shape(u))


def inv_gamma_quantile(mu: float, u: float) -> float:
    """Quantile F_mu^{-1}(u) of the inverse-gamma law of parameter mu.

    Raises DomainError when the quantile exceeds the float range, which
    happens for small mu and u near 1 (mu = 1e-3 already at u = 0.6).
    """
    if not mu > 0.0:
        raise DomainError("inv_gamma_quantile requires mu > 0")
    if not 0.0 < u < 1.0:
        raise DomainError("inv_gamma_quantile requires 0 < u < 1, got %r" % (u,))
    log_zeta = float(log_inv_gamma_quantile(mu, u))
    if not log_zeta < _LOG_DBL_MAX:
        raise DomainError(
            "inv_gamma_quantile(%r, %r) = exp(%.6g) overflows a float" % (mu, u, log_zeta)
        )
    return math.exp(log_zeta)


def bessel_k0(x: float) -> float:
    """Modified Bessel K_0(x) = int_0^inf exp(-x cosh t) dt, for x > 0."""
    if not x > 0.0:
        raise DomainError("bessel_k0 requires x > 0")
    return float(sps.k0(x))


def log_bessel_k0(x: float) -> float:
    """log K_0(x) for x > 0, as log(k0e(x)) - x: the scaled k0e = e^x K_0
    stays normal where K_0 itself is subnormal (x above about 708) or zero
    (above about 745).  -inf at x = inf."""
    if not x > 0.0:
        raise DomainError("log_bessel_k0 requires x > 0")
    if x == math.inf:
        return -math.inf
    return math.log(float(sps.k0e(x))) - x

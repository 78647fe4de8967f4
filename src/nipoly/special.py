"""Scalar special functions: thin wrappers over scipy.special.

Each wrapper checks its domain, raising DomainError, and returns a Python
float.  The inverse-gamma quantile has one owner, log_inv_gamma_quantile,
which the scalar quantile, the environment and the fluctuation sampler all
call.  For each mu it evaluates a cached piecewise-polynomial table in the
Gaussian score, built from scipy's incomplete-gamma inverses and checked
against them; scores beyond the table take those inverses directly.  Every
input size takes this one route, and large transforms run in fixed-size
chunks on all available cores; the transform is elementwise, so the result
is bitwise independent of the batch and of the chunking.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

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
    if n < 0:
        raise DomainError("log_factorial requires n >= 0")
    return float(sps.gammaln(n + 1.0))


def log_superfactorial(n: int) -> float:
    """log of H(n) = product of j! for j = 0 .. n-1; H(0) = H(1) = 1."""
    if n < 0:
        raise DomainError("log_superfactorial requires n >= 0")
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
    if x < 0.0:
        raise DomainError("gamma_q requires x >= 0")
    if a > _MU_ACCURATE and x < a - _X_BAND * math.sqrt(a):
        raise DomainError(
            "gamma_q: a = %r > %g is inaccurate for x < a - %g sqrt(a)" % (a, _MU_ACCURATE, _X_BAND)
        )
    return float(sps.gammaincc(a, x))


def inv_gamma_cdf(mu: float, s: float) -> float:
    """CDF F_mu(s) of the inverse-gamma law with density s^(-mu-1) e^(-1/s) / Gamma(mu)."""
    if not mu > 0.0:
        raise DomainError("inv_gamma_cdf requires mu > 0")
    if s <= 0.0:
        return 0.0
    return gamma_q(mu, 1.0 / s)


# sites per task of the quantile transform; smaller inputs stay on the caller
_CHUNK = 1 << 16
_S_BAND = 4.5
_U_BAND = float(sps.ndtr(_S_BAND))
_pool = None
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    # a forked child inherits the executor but not its threads
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _quantile_pool() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            try:
                workers = len(os.sched_getaffinity(0))
            except AttributeError:
                workers = os.cpu_count() or 1
            _pool = ThreadPoolExecutor(workers, thread_name_prefix="nipoly-quantile")
        return _pool


def _log_from_root(mu: float, y, log_p):
    # -log y, where P(mu, y) = e^log_p; tiny mu pushes y below float range,
    # and there the leading series P(mu, y) ~ y^mu / Gamma(mu + 1) gives log y
    tiny = ~(y > 1e-280)
    with np.errstate(divide="ignore"):
        direct = -np.log(y)
    series = -(log_p + sps.gammaln(mu + 1.0)) / mu
    return np.where(tiny, series, direct)


def _log_inv_gamma_quantile_exact(mu: float, u):
    """log F_mu^{-1}(u) straight from scipy's inverse of Q(mu, .)."""
    return _log_from_root(mu, sps.gammainccinv(mu, u), np.log1p(-u))


def _log_inv_gamma_quantile_score(mu: float, s: np.ndarray) -> np.ndarray:
    """log F_mu^{-1}(ndtr(s)) from the Gaussian score s: the exact route,
    with u > 1/2 inverted as P(mu, y) = ndtr(-s), so that ndtr(s) is never
    rounded near 1."""
    y = np.empty_like(s)
    upper = s > 0.0
    y[~upper] = sps.gammainccinv(mu, sps.ndtr(s[~upper]))
    y[upper] = sps.gammaincinv(mu, sps.ndtr(-s[upper]))
    return _log_from_root(mu, y, sps.log_ndtr(-s))


# The quantile table covers s = ndtri(u) in [-8.5, 8.5] (hash uniforms have
# |s| <= 8.3) with 512 equal intervals; above mu = 4e5 it stops at the
# refusal edge s = 4.5, since knots past it would spoil the last interval.
_TABLE_LO = -8.5
_TABLE_HI = 8.5
_INTERVALS = 512


def _chebyshev_interpolation():
    """The 9 Chebyshev points x_j = cos(theta_j); the matrix taking values
    at them to the Chebyshev coefficients of their interpolant, (2/9)
    sum_j cos(k theta_j) f_j halved at k = 0; and the matrix whose column k
    holds the monomial coefficients of T_k.  Built from math.cos and used
    by plain ufuncs: a LAPACK fit would add a megabyte of code pages to
    every process that builds a table."""
    theta = [math.pi * (j + 0.5) / 9 for j in range(9)]
    to_cheb = np.array([[2.0 / 9 * math.cos(k * t) for t in theta] for k in range(9)])
    to_cheb[0] *= 0.5
    to_mono = np.zeros((9, 9))
    to_mono[0, 0] = to_mono[1, 1] = 1.0
    for k in range(2, 9):  # T_k = 2 x T_(k-1) - T_(k-2)
        to_mono[1:, k] = 2.0 * to_mono[:-1, k - 1]
        to_mono[:, k] -= to_mono[:, k - 2]
    return np.array([math.cos(t) for t in theta]), to_cheb, to_mono


_NODES, _VALUES_TO_CHEB, _CHEB_TO_MONO = _chebyshev_interpolation()
_TABLE_TOL = 1e-12


@functools.lru_cache(maxsize=64)
def _quantile_table(mu: float):
    """(lo, 1/h, coef) of the quantile table at mu: on interval k, with
    x = 2 (s - lo)/h - 2k - 1 in [-1, 1], log F_mu^{-1}(ndtr(s)) is
    sum_j coef[j, k] x^j, the interpolant at 9 Chebyshev nodes.  The
    midpoints are nodes, so the build checks both interpolants at every
    interval edge against the exact route and raises PrecisionLossError
    beyond 1e-12 max(1, |value|)."""
    hi = _S_BAND if mu > _MU_ACCURATE else _TABLE_HI
    h = (hi - _TABLE_LO) / _INTERVALS
    edges = _TABLE_LO + h * np.arange(_INTERVALS + 1)
    s = edges[:-1] + 0.5 * h * (_NODES[:, None] + 1.0)
    knots = _log_inv_gamma_quantile_score(mu, s.ravel()).reshape(s.shape)
    cheb = (_VALUES_TO_CHEB[:, :, None] * knots).sum(axis=1)
    coef = (_CHEB_TO_MONO[:, :, None] * cheb).sum(axis=1)
    exact = _log_inv_gamma_quantile_score(mu, edges)
    tol = _TABLE_TOL * np.maximum(1.0, np.abs(exact))
    left = np.abs(np.polynomial.polynomial.polyval(-1.0, coef) - exact[:-1])
    right = np.abs(np.polynomial.polynomial.polyval(1.0, coef) - exact[1:])
    worst = float(np.max(np.maximum(left / tol[:-1], right / tol[1:])))
    if not worst <= 1.0:
        raise PrecisionLossError(
            "log_inv_gamma_quantile: table at mu = %r misses the exact route by %.3g tolerances"
            % (mu, worst)
        )
    coef.flags.writeable = False
    return _TABLE_LO, 1.0 / h, coef


def _log_inv_gamma_quantile_body(mu: float, u: np.ndarray, out: np.ndarray) -> None:
    """Write log F_mu^{-1}(u) into out, for flat float64 u and out alike:
    Horner's rule on the table, and the exact route beyond it."""
    lo, inv_h, coef = _quantile_table(mu)
    x = sps.ndtri(u)
    x -= lo
    x *= inv_h
    np.clip(x, 0.0, coef.shape[1] - 1, out=out)
    with np.errstate(invalid="ignore"):  # NaN scores take the exact route
        k = out.astype(np.intp)
    x -= k
    x *= 2.0
    x -= 1.0
    np.take(coef[-1], k, out=out)
    term = np.empty_like(out)
    for row in coef[-2::-1]:
        out *= x
        out += np.take(row, k, out=term)
    tail = ~(np.abs(x, out=term) <= 1.0)
    if tail.any():
        out[tail] = _log_inv_gamma_quantile_exact(mu, u[tail])


def log_inv_gamma_quantile(mu: float, u):
    """log F_mu^{-1}(u), elementwise over u in (0, 1), for mu > 0.

    1/zeta is Gamma(mu, 1), so log zeta = -log y with Q(mu, y) = u.  For
    each mu, a table is built once (3-18 ms, cached for the last 64 mu): a
    degree-8 polynomial in the Gaussian score s = ndtri(u) on each of 512
    intervals of [-8.5, 8.5], interpolating the exact route at Chebyshev
    nodes.  The exact route is scipy's gammainccinv, or gammaincinv on
    P(mu, y) = ndtr(-s) for s > 0; tiny mu pushes y below float range, and
    there the leading series P(mu, y) ~ y^mu / Gamma(mu + 1) gives log y
    directly.  Scores beyond the table take gammainccinv at u.  The table
    is within 1e-13 max(1, |value|) of 40-digit mpmath (tested for mu from
    1e-3 to 4e5), and its build raises PrecisionLossError if an interval
    misses the exact route by more than 1e-12 max(1, |value|).

    Every input size, scalars included, takes the same route, so a site's
    value does not depend on the batch it is computed in.  Inputs of two
    chunks or more are split into flat chunks that run on a thread pool
    (the ufuncs release the GIL), one thread per available core.  Raises
    DomainError for mu <= 0, and for mu > 4e5 and u > ndtr(4.5), where
    scipy's inverse is not accurate.
    """
    mu = float(mu)
    if not mu > 0.0:
        raise DomainError("log_inv_gamma_quantile requires mu > 0, got %r" % (mu,))
    u = np.asarray(u, dtype=np.float64)
    if mu > _MU_ACCURATE and np.any(u > _U_BAND):
        raise DomainError(
            "log_inv_gamma_quantile: mu = %r > %g is inaccurate for u > ndtr(4.5)"
            % (mu, _MU_ACCURATE)
        )
    flat = u.ravel()
    out = np.empty(flat.shape)
    chunk = _CHUNK
    if flat.size < 2 * chunk:
        _log_inv_gamma_quantile_body(mu, flat, out)
        return out.reshape(u.shape)
    _quantile_table(mu)  # built once here, not raced for by the chunks
    pool = _quantile_pool()
    tasks = [
        pool.submit(_log_inv_gamma_quantile_body, mu, flat[lo : lo + chunk], out[lo : lo + chunk])
        for lo in range(0, flat.size, chunk)
    ]
    for task in tasks:
        task.result()
    return out.reshape(u.shape)


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

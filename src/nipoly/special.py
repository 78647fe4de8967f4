"""Scalar special functions: thin wrappers over scipy.special.

Each wrapper checks its domain, raising DomainError, and returns a Python
float.  The inverse-gamma quantile has one owner, log_inv_gamma_quantile,
which the scalar quantile, the environment's bulk path, the large-mu table
and the fluctuation sampler all call.  Large quantile transforms run in
fixed-size chunks on all available cores; the transform is elementwise, so
the result is bitwise independent of the chunking.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.special as sps

from .errors import DomainError
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
_U_BAND = float(sps.ndtr(4.5))
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


def _log_inv_gamma_quantile_body(mu: float, u):
    y = sps.gammainccinv(mu, u)
    tiny = ~(y > 1e-280)
    with np.errstate(divide="ignore"):
        direct = -np.log(y)
    series = -(np.log1p(-u) + sps.gammaln(mu + 1.0)) / mu
    return np.where(tiny, series, direct)


def log_inv_gamma_quantile(mu: float, u):
    """log F_mu^{-1}(u), elementwise over u in (0, 1), for mu > 0.

    1/zeta is Gamma(mu, 1), so log zeta = -log y with Q(mu, y) = u.  Tiny
    mu pushes y below float range; there the leading series
    P(mu, y) ~ y^mu / Gamma(mu + 1) gives log y directly.  Inputs of two
    chunks or more are split into flat chunks that run on a thread pool
    (the ufuncs release the GIL), one thread per available core.  Raises
    DomainError for mu > 4e5 and u > ndtr(4.5), where scipy's inverse is
    not accurate.
    """
    u = np.asarray(u)
    if mu > _MU_ACCURATE and np.any(u > _U_BAND):
        raise DomainError(
            "log_inv_gamma_quantile: mu = %r > %g is inaccurate for u > ndtr(4.5)"
            % (mu, _MU_ACCURATE)
        )
    chunk = _CHUNK
    if u.size < 2 * chunk:
        return _log_inv_gamma_quantile_body(mu, u)
    flat = u.ravel()
    out = np.empty(flat.shape, np.result_type(flat, 1.0))

    def run(lo: int) -> None:
        out[lo : lo + chunk] = _log_inv_gamma_quantile_body(mu, flat[lo : lo + chunk])

    pool = _quantile_pool()
    for task in [pool.submit(run, lo) for lo in range(0, flat.size, chunk)]:
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

"""Independent reference routes that the benchmark checks nipoly against.

Each oracle recomputes a quantity by a different algorithm, or at higher
precision, than the nipoly code under test.  They run outside the timed
region, so their cost never shows in the end-to-end metrics.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import scipy.integrate
import scipy.optimize
import scipy.special as sps

_M64 = 0xFFFFFFFFFFFFFFFF


# ---------------------------------------------------------------------------
# The counter-based uniform field, written from its specification
# ---------------------------------------------------------------------------


def _u64(values) -> np.ndarray:
    # two's complement for negative coordinates, masking for seeds >= 2^63
    return np.array([int(v) & _M64 for v in np.ravel(values)], dtype=np.uint64).reshape(
        np.shape(values)
    )


def _mix(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = z + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def uniform_ref(seeds, x1, x2) -> np.ndarray:
    """u(seed, x1, x2): splitmix64 of the seed, then of each coordinate
    xor-ed in, top 53 bits offset by half a step (strictly inside (0, 1)).
    Arguments broadcast like numpy."""
    h = _mix(_u64(seeds))
    h = _mix(h ^ _u64(x1))
    h = _mix(h ^ _u64(x2))
    return ((h >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def loggamma_omega_ref(mu: float, u: float, dps: int = 30) -> float:
    """omega = log zeta with 1/zeta = Qinv(mu, u), the upper regularized
    incomplete gamma inverse, by Newton's method in mpmath."""
    with mpmath.workdps(dps):
        a, target = mpmath.mpf(mu), mpmath.mpf(u)
        y = mpmath.mpf(float(sps.gammainccinv(mu, u)))
        lg = mpmath.loggamma(a)
        for _ in range(60):
            f = mpmath.gammainc(a, y, mpmath.inf, regularized=True) - target
            dens = mpmath.exp((a - 1) * mpmath.log(y) - y - lg)
            step = f / dens  # Q decreases in y: y_new = y + f / density
            y += step
            if abs(step) <= y * mpmath.mpf(10) ** (-dps + 5):
                break
        else:
            raise ArithmeticError("omega reference did not converge")
        return float(-mpmath.log(y))


# ---------------------------------------------------------------------------
# Dynamic programming by rows (prefix form), not by anti-diagonals
# ---------------------------------------------------------------------------


def corner_scan_rows(logw: np.ndarray, tropical: bool = False, include_start: bool = False):
    """Corner-to-corner log Z (or last passage when tropical) over (..., W, H).

    Row a of the table follows from row a-1 in one vectorized pass:
    g[a, b] = P[b] + (+)_{l <= b} (g[a-1, l] - P[l-1]) with P the prefix
    sums of logw[a, :], so no anti-diagonal bookkeeping is shared with the
    code under test.
    """
    acc = np.maximum.accumulate if tropical else np.logaddexp.accumulate
    start = logw[..., 0, 0] if include_start else np.zeros(logw.shape[:-2])
    first = np.cumsum(logw[..., 0, :], axis=-1) - logw[..., 0, 0:1]
    g = start[..., None] + first
    for a in range(1, logw.shape[-2]):
        p = np.cumsum(logw[..., a, :], axis=-1)
        p_prev = np.concatenate([np.zeros(p.shape[:-1] + (1,)), p[..., :-1]], axis=-1)
        g = p + acc(g - p_prev, axis=-1)
    return g[..., -1]


# ---------------------------------------------------------------------------
# phi from tau ratios in extended precision
# ---------------------------------------------------------------------------


def _log_leading_minors(rows, size):
    """log |det| of the k x k leading minors, k = 1..size, of a matrix of
    mpf by one elimination without pivoting (minors of LGV matrices are
    nonzero, and the working precision absorbs the lack of pivoting)."""
    a = [list(r[:size]) for r in rows[:size]]
    out = []
    log_det = mpmath.mpf(0)
    for k in range(size):
        piv = a[k][k]
        if piv == 0:
            raise ArithmeticError("vanishing leading minor")
        log_det += mpmath.log(abs(piv))
        out.append(log_det)
        for r in range(k + 1, size):
            f = a[r][k] / piv
            if f:
                row_r, row_k = a[r], a[k]
                for c in range(k + 1, size):
                    row_r[c] -= f * row_k[c]
    return out


def phi_oracle(logw: np.ndarray, dps: int = 60) -> np.ndarray:
    """phi(i, j) for an N x N square of log weights (logw[a-1, b-1] at site
    (a, b)), evaluated as log tau ratios in mpmath at dps digits.

    tau(m, k) is the k-path partition function from stack_up((1,1), k) to
    stack_down((N, m), k), start weights included; tau~ ends at
    stack_down((m, N), k).  Its LGV matrix has rows i = 1..k and end heights
    m-k+1..m; reversing the end order makes every needed determinant a
    leading minor of one m x m matrix per m.
    """
    n = logw.shape[0]
    with mpmath.workdps(dps):
        w = [[mpmath.exp(mpmath.mpf(float(v))) for v in row] for row in logw]
        # z[i][a][b]: paths from (1, i+1) to (a+1, b+1), start excluded
        z = []
        for i in range(n):
            g = [[mpmath.mpf(0)] * n for _ in range(n)]
            for a in range(n):
                for b in range(i, n):
                    if a == 0 and b == i:
                        g[a][b] = mpmath.mpf(1)
                        continue
                    s = (g[a - 1][b] if a else 0) + (g[a][b - 1] if b > i else 0)
                    g[a][b] = s * w[a][b]
            z.append(g)
        log_start = [mpmath.mpf(0)]
        for i in range(n):
            log_start.append(log_start[-1] + mpmath.log(w[0][i]))
        log_tau = {}
        log_tau_t = {}
        for m in range(1, n + 1):
            mat = [[z[i][n - 1][m - 1 - c] for c in range(m)] for i in range(m)]
            mat_t = [[z[i][m - 1][n - 1 - c] for c in range(m)] for i in range(m)]
            for k, v in enumerate(_log_leading_minors(mat, m), start=1):
                log_tau[m, k] = log_start[k] + v
            for k, v in enumerate(_log_leading_minors(mat_t, m), start=1):
                log_tau_t[m, k] = log_start[k] + v
        out = np.empty((n, n))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i <= j:
                    m, k, t = n - j + i, i, log_tau
                else:
                    m, k, t = n - i + j, j, log_tau_t
                prev = t[m, k - 1] if k > 1 else mpmath.mpf(0)
                out[i - 1, j - 1] = float(t[m, k] - prev)
    return out


# ---------------------------------------------------------------------------
# Marchenko-Pastur and semicircle quantiles by quadrature and root finding
# ---------------------------------------------------------------------------


def mp_mass_above_ref(c: float, rho: float) -> float:
    """Mass above rho of MP(c): density sqrt((M-u)(u-m)) / (2 pi c u) on
    [m, M] = [(1 - sqrt c)^2, (1 + sqrt c)^2], integrated with the
    square-root endpoint weight handled exactly by QUADPACK."""
    lo, hi = (1.0 - math.sqrt(c)) ** 2, (1.0 + math.sqrt(c)) ** 2
    rho = min(max(rho, lo), hi)
    if rho >= hi:
        return 0.0
    if lo == 0.0:
        return 1.0 - mp_mass_below_ref(c, rho)
    val, _ = scipy.integrate.quad(
        lambda u: math.sqrt(max(u - lo, 0.0)) / (2.0 * math.pi * c * u),
        rho,
        hi,
        weight="alg",
        wvar=(0.0, 0.5),
        epsabs=1e-14,
        epsrel=1e-13,
    )
    return val


def mp_mass_below_ref(c: float, rho: float) -> float:
    lo, hi = (1.0 - math.sqrt(c)) ** 2, (1.0 + math.sqrt(c)) ** 2
    rho = min(max(rho, lo), hi)
    if rho <= lo:
        return 0.0
    if lo == 0.0:
        # c = 1: the density is sqrt(hi - u) / (2 pi sqrt(u)) near u = 0
        f, wvar = (lambda u: math.sqrt(max(hi - u, 0.0)) / (2.0 * math.pi * c)), (-0.5, 0.0)
    else:
        f, wvar = (lambda u: math.sqrt(max(hi - u, 0.0)) / (2.0 * math.pi * c * u)), (0.5, 0.0)
    val, _ = scipy.integrate.quad(
        f, lo, rho, weight="alg", wvar=wvar, epsabs=1e-14, epsrel=1e-13
    )
    return val


def mp_quantile_ref(c: float, alpha: float) -> float:
    """rho with MP(c) mass alpha / c above it."""
    lo, hi = (1.0 - math.sqrt(c)) ** 2, (1.0 + math.sqrt(c)) ** 2
    target = alpha / c
    # root-find on whichever tail is smaller, where quadrature is sharpest
    if target <= 0.5:
        f = lambda r: mp_mass_above_ref(c, r) - target
    else:
        f = lambda r: (1.0 - target) - mp_mass_below_ref(c, r)
    return scipy.optimize.brentq(f, lo, hi, xtol=1e-15, maxiter=200)


def sc_quantile_ref(x: float) -> float:
    """rho in [-2, 2] with semicircle mass x above it."""

    def tail(r):
        # semicircle mass above r: density sqrt(2 + u) sqrt(2 - u) / (2 pi)
        val, _ = scipy.integrate.quad(
            lambda u: math.sqrt(max(2.0 + u, 0.0)) / (2.0 * math.pi),
            r, 2.0, weight="alg", wvar=(0.0, 0.5), epsabs=1e-14, epsrel=1e-13,
        )
        return val

    # by symmetry, root-find in the upper tail and reflect when x > 1/2
    if x <= 0.5:
        return scipy.optimize.brentq(lambda r: tail(r) - x, -2.0, 2.0, xtol=1e-15)
    return -scipy.optimize.brentq(lambda r: tail(r) - (1.0 - x), -2.0, 2.0, xtol=1e-15)


def eigvalsh_desc(a: np.ndarray) -> np.ndarray:
    """LAPACK eigenvalues of Hermitian matrices, sorted decreasing."""
    return np.linalg.eigvalsh(a)[..., ::-1]


# ---------------------------------------------------------------------------
# Statistics for the gates
# ---------------------------------------------------------------------------


def integrated_autocorrelation(series, window: float = 6.0) -> float:
    """Sokal's self-consistent window: tau = 1 + 2 sum_{t<=W} rho(t), with
    the smallest W >= window * tau."""
    x = np.asarray(series, dtype=float)
    x = x - x.mean()
    n = len(x)
    f = np.fft.rfft(x, n=2 * n)
    acov = np.fft.irfft(f * np.conj(f))[:n]
    if acov[0] <= 0.0:
        return 1.0
    rho = acov / acov[0]
    tau = 1.0 + 2.0 * np.cumsum(rho[1:])
    for w in range(1, n - 1):
        if w >= window * tau[w - 1]:
            return max(float(tau[w - 1]), 1.0)
    return max(float(tau[-1]), 1.0)


def ks_two_sample(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / len(a)
    fb = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.abs(fa - fb).max())

"""Scalar limit shapes, random-matrix law checks, fluctuations, and the
bead-model surface tension verification chain.

Everything here is either a closed formula from the large-N analysis
(edge curves, xi_ht, Marchenko-Pastur and semicircle quantiles, the tilted
bead surface tension) or a Monte Carlo probe tying those formulas back to
the polymer and random-matrix samplers.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.integrate
from scipy.optimize import brentq

# omega_grid is not called here: bench/test_bench.py expects this module to bind it
from .environment import _lane_blocks, _mean_stderr, _replica_lanes, omega_grid  # noqa: F401
from .errors import DomainError
from .interface import theta_min
from .polymer import last_passage_batch, loggamma_rectangle, sepp_free_energy
from .rmt import gue_sample, lue_sample, lue_sample_batch
from .special import digamma, log_superfactorial, trigamma


# brentq to float resolution: its finest relative tolerance, a negligible
# absolute one
_RTOL = 4.0 * np.finfo(float).eps
_XTOL = 1e-300


# ---------------------------------------------------------------------------
# Marchenko-Pastur and semicircle quantiles
# ---------------------------------------------------------------------------


def mp_edges(c: float) -> tuple[float, float]:
    if not 0.0 < c <= 1.0:
        raise DomainError("Marchenko-Pastur parameter c must be in (0, 1]")
    # the lower edge as a square: 1 + c - 2 sqrt(c) cancels as c -> 1
    return (1.0 - math.sqrt(c)) ** 2, 1.0 + c + 2.0 * math.sqrt(c)


def mp_mass_above(c: float, rho: float) -> float:
    """Mass of the MP(c) distribution above rho, in closed form.

    With r = sqrt((b - rho)(rho - a)) for the edges a, b and the density
    r / (2 pi c rho), the mass is
    [(1+c) acos((rho-1-c)/(2 sqrt c)) - (1-c) acos(((1+c) rho - (1-c)^2)
    / (2 sqrt(c) rho)) - r] / (2 pi c).  Each acos is an atan2 whose sine
    is the factored r, so it stays accurate at both edges; the second term
    is exactly 0 at c = 1."""
    m_c, big_m = mp_edges(c)
    if rho <= m_c:
        return 1.0
    if rho >= big_m:
        return 0.0
    r = math.sqrt((big_m - rho) * (rho - m_c))
    d = 1.0 - c
    mass = (1.0 + c) * math.atan2(r, rho - (1.0 + c)) - r
    mass -= d * math.atan2(d * r, (1.0 + c) * rho - d * d)
    return mass / (2.0 * math.pi * c)


def mp_quantile(c: float, alpha: float) -> float:
    """rho with mass alpha/c of MP(c) above it: the limit position of the
    (alpha N)-th largest eigenvalue of a Laguerre matrix of shape cN x cN
    scaled by 1/N."""
    if not 0.0 <= alpha <= c:
        raise DomainError("need 0 <= alpha <= c")
    m_c, big_m = mp_edges(c)
    if alpha == 0.0:
        return big_m
    if alpha == c:
        return m_c
    target = alpha / c
    return brentq(
        lambda rho: mp_mass_above(c, rho) - target, m_c, big_m, xtol=_XTOL, rtol=_RTOL
    )


def _check_unit_square(name: str, s: float, t: float) -> None:
    if not (0.0 <= s <= 1.0 and 0.0 <= t <= 1.0):
        raise DomainError("%s needs (s, t) in the unit square, got (%r, %r)" % (name, s, t))


def xi_mp(s: float, t: float) -> float:
    """Zero-temperature limit shape: the symmetric function equal to
    mp_quantile(1 - t + s, s) on {s <= t} of the unit square; 1 at (0, 1),
    its limit there and rost_ell(0)."""
    _check_unit_square("xi_mp", s, t)
    if s > t:
        s, t = t, s
    c = 1.0 - t + s
    return mp_quantile(c, s) if c > 0.0 else 1.0


def sc_cdf(x: float) -> float:
    """Semicircle CDF, closed form F(2 sin phi) = 1/2 + phi/pi + sin phi cos phi / pi."""
    if x <= -2.0:
        return 0.0
    if x >= 2.0:
        return 1.0
    phi = math.asin(0.5 * x)
    return 0.5 + phi / math.pi + math.sin(phi) * math.cos(phi) / math.pi


def _t_minus_sin(t: float) -> float:
    """t - sin t, by its alternating Taylor series below t = 1, where the
    difference cancels; 10 terms reach double precision there."""
    if t >= 1.0:
        return t - math.sin(t)
    term, total = t**3 / 6.0, 0.0
    for k in range(2, 12):
        total += term
        term *= -t * t / ((2 * k) * (2 * k + 1))
    return total


def _sc_upper_quantile(x: float) -> float:
    """sc_quantile for 0 <= x <= 1/2."""
    if x == 0.0:
        return 2.0
    # rho = 2 cos(psi) has mass T(2 psi) / (2 pi) above it, T(t) = t - sin t;
    # in psi = pi/2 - phi the upper tail x -> 0 stays resolved.  T(2p) is
    # increasing and convex on [0, pi/2] with derivative 4 sin^2 p, so
    # Newton from p0 (at most psi, as T(t) <= t^3 / 6) lands right of psi
    # and then falls to it monotonically: a later step that does not fall
    # by more than a few ulps is rounding, and ends the iteration
    target = 2.0 * math.pi * x

    def newton(p):
        step = (_t_minus_sin(2.0 * p) - target) / (4.0 * math.sin(p) ** 2)
        return min(0.5 * math.pi, max(0.0, p - step))

    p = newton(min(0.5 * math.pi, (1.5 * math.pi * x) ** (1.0 / 3.0)))
    while True:
        p_next = newton(p)
        if p - p_next <= _RTOL * p:
            return 2.0 * math.cos(p_next)
        p = p_next


def sc_quantile(x: float) -> float:
    """rho in [-2, 2] with semicircle mass x above it (decreasing in x)."""
    if not 0.0 <= x <= 1.0:
        raise DomainError("mass argument must lie in [0, 1]")
    if x > 0.5:
        # the law is symmetric, and 1 - x is exact here
        return -_sc_upper_quantile(1.0 - x)
    return _sc_upper_quantile(x)


def sc_cdf_check(phi: float) -> float:
    """|quadrature of the semicircle density up to 2 sin phi - closed form|."""
    if not -0.5 * math.pi < phi < 0.5 * math.pi:
        raise DomainError("phi must be interior to (-pi/2, pi/2)")
    # sqrt(4 - u^2) = sqrt(2 - u) (u + 2)^(1/2); the 'alg' weight takes the
    # square-root endpoint at -2 exactly
    val, _ = scipy.integrate.quad(
        lambda u: math.sqrt(2.0 - u) / (2.0 * math.pi),
        -2.0,
        2.0 * math.sin(phi),
        weight="alg",
        wvar=(0.5, 0.0),
        epsabs=1e-14,
        epsrel=1e-14,
        limit=200,
    )
    return abs(val - sc_cdf(2.0 * math.sin(phi)))


def xi_sc(s: float, t: float) -> float:
    """GUE limit shape sqrt(1 - t + s) * sc_quantile(s / (1 - t + s)) on
    {s <= t}, extended symmetrically, on the unit square; 0 at (0, 1)."""
    _check_unit_square("xi_sc", s, t)
    if s > t:
        s, t = t, s
    c = 1.0 - t + s
    return math.sqrt(c) * sc_quantile(s / c) if c > 0.0 else 0.0


# ---------------------------------------------------------------------------
# The high-temperature limit shape and edge curves
# ---------------------------------------------------------------------------


def _q(u: float) -> float:
    return 0.0 if u <= 0.0 else u * math.log(u)


def xi_ht(s: float, t: float) -> float:
    """Large-mu (tilted) limit shape: with q(u) = u log u,
    q(s) + 2q(2-s-t) - q(2-t) - q(1-t) - q(1-s) on {s <= t} of the unit
    square, symmetric."""
    _check_unit_square("xi_ht", s, t)
    if s > t:
        s, t = t, s
    return _q(s) + 2.0 * _q(2.0 - s - t) - _q(2.0 - t) - _q(1.0 - t) - _q(1.0 - s)


def xi_edge_bottom(mu: float, t: float) -> float:
    """Boundary curve -sup_{theta in [0, mu]} ((1-t) psi0(theta) + psi0(mu - theta)):
    the solvable free energy sepp_free_energy(mu, 1 - t) for t < 1, mu > 0."""
    if not mu > 0.0:
        raise DomainError("xi_edge_bottom requires mu > 0")
    if not 0.0 <= t <= 1.0:
        raise DomainError("t must lie in [0, 1]")
    if t == 1.0:
        return -digamma(mu)
    return sepp_free_energy(mu, 1.0 - t)


def xi_edge_top(mu: float, t: float) -> float:
    """Boundary curve sup_{theta > 0} (t psi0(theta) - psi0(mu + theta)), mu > 0."""
    if not mu > 0.0:
        raise DomainError("xi_edge_top requires mu > 0")
    if not 0.0 <= t <= 1.0:
        raise DomainError("t must lie in [0, 1]")
    if t == 0.0:
        return -digamma(mu)
    if t == 1.0:
        return 0.0

    def deriv(theta):
        return t * trigamma(theta) - trigamma(mu + theta)

    lo = 1e-14
    hi = 1.0
    while deriv(hi) > 0:
        hi *= 2.0
        if math.isinf(hi):
            raise DomainError("xi_edge_top: no upper bracket for the stationary theta")
    if not deriv(lo) >= 0.0:
        raise DomainError("xi_edge_top: stationary theta lies below %g" % lo)
    theta = brentq(deriv, lo, hi, xtol=_XTOL, rtol=_RTOL)
    return t * digamma(theta) - digamma(mu + theta)


def theta_min_vs_xi_ht_gap(n: int) -> float:
    """Sup over grid points of |scaled theta_min - xi_ht|; the Stirling
    error makes this O(log N / N); n >= 1."""
    if n < 1:
        raise DomainError("theta_min_vs_xi_ht_gap needs n >= 1")
    tmin = theta_min(n).values
    grid = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    return max(abs(tmin[i - 1, j - 1] / n - xi_ht(i / n, j / n)) for i, j in grid)


def diagonal_free_energy_check(
    mu: float, c: float, n: int, replicas: int, seed: int
) -> dict:
    """(1/N^2) log tau(cN, cN) is a plain average of log weights over the
    rectangle, so its MC mean must sit within the CLT band of -c psi0(mu)
    and its variance near c psi1(mu) / N^2; N, floor(cN) >= 1.  The
    replicas are the seed lanes of one loggamma_rectangle call."""
    seeds = _replica_lanes(seed, 0xD1, replicas)
    m = int(math.floor(c * n))
    if n < 1 or m < 1:
        raise DomainError("diagonal_free_energy_check needs N >= 1 and floor(cN) >= 1")
    vals = loggamma_rectangle(seeds, mu, n, m).reshape(replicas, -1).sum(axis=1) / (n * n)
    mean, stderr = map(float, _mean_stderr(vals))
    target = -c * digamma(mu)
    var_pred = c * trigamma(mu) / (n * n)
    return {
        "mean": mean,
        "stderr": stderr,
        "target": target,
        "zscore": (mean - target) / stderr if stderr > 0 else 0.0,
        "var": float(vals.var(ddof=1)),
        "var_pred": var_pred,
        "ok": abs(mean - target) < 3.5 * stderr,
    }


# ---------------------------------------------------------------------------
# Bead surface tension
# ---------------------------------------------------------------------------


def bead_sigma_tilted(p: float, q: float) -> float:
    """Tilted bead surface tension -log(|p| cos(pi q / (2|p|))) on the cone
    {p < 0, |q| < |p|}, rising to +infinity as |q| -> |p|; math.inf
    outside it."""
    if not (p < 0.0 and abs(q) < abs(p)):
        return math.inf
    return -math.log(abs(p) * math.cos(0.5 * math.pi * q / abs(p)))


def bead_sigma(s: float, t: float) -> float:
    """Untilted bead surface tension -log(|s+t| sin(pi s / (s+t))): finite
    only for s, t < 0 (math.inf elsewhere), via p = s + t, q = t - s, which
    maps that quadrant onto the whole tilted cone.  Symmetric in (s, t),
    and rising to +infinity as s -> 0- or t -> 0-."""
    if not (s < 0.0 and t < 0.0):
        return math.inf
    return bead_sigma_tilted(s + t, t - s)


def sc_hilbert_pv(phi: float) -> float:
    """Principal-value integral Lambda = PV int_0^1 ds / (rho(s) - rho(r)) at
    the point r with rho(r) = 2 sin phi, where rho is the semicircle
    quantile; its closed form is -sin phi, minus the usual x/2
    Stieltjes/Hilbert value of the semicircle at x = 2 sin phi.  QUADPACK's
    Cauchy weight 1/(s - r) takes the pole; what it multiplies,
    (s - r) / (rho(s) - rho(r)), is regular at r with limit
    1/rho'(r) = -cos(phi)/pi."""
    rho_r = 2.0 * math.sin(phi)
    r = 1.0 - sc_cdf(rho_r)
    if not 0.0 < r < 1.0:
        raise DomainError("the pole r must lie inside (0, 1); phi is too near +-pi/2")

    def g(s):
        if s == r:
            return -math.cos(phi) / math.pi
        return (s - r) / (sc_quantile(s) - rho_r)

    val, _, _, *failure = scipy.integrate.quad(
        g, 0.0, 1.0, weight="cauchy", wvar=r, full_output=1
    )
    if failure:
        # near |phi| = pi/2 the pole r crowds the endpoint and QUADPACK
        # runs out of subdivisions
        raise DomainError("sc_hilbert_pv(%r): quadrature did not converge: %s" % (phi, failure[0]))
    return val


def omega_identity_check(phis=None) -> dict:
    """Residuals of the stationarity identity satisfied by the semicircle
    shape: (1/rho') Omega'((d_tau xi)/rho') + Lambda = 0 with
    rho' = -pi/cos(phi), d_tau xi = phi/cos(phi), Omega'(s) = pi tan(pi s),
    and Lambda the Hilbert transform of the semicircle (= -sin phi closed
    form, see sc_hilbert_pv).  Omega(s) = -log cos(pi s) on |s| < 1/2 is
    the tilted bead tension bead_sigma_tilted(-1, 2s).  Also reports the
    residual under the alternative printed reading
    Omega'(-phi/pi) = -pi tan(pi phi), which does not close."""
    if phis is None:
        phis = [(-0.5 + (j + 0.5) / 99) * math.pi * 0.995 for j in range(99)]
    phis = list(phis)
    if not phis:
        raise DomainError("omega_identity_check needs at least one phi")
    closed = []
    alt = []
    for phi in phis:
        rho_p = -math.pi / math.cos(phi)
        dtau_xi = phi / math.cos(phi)
        s = dtau_xi / rho_p  # = -phi/pi
        term = (1.0 / rho_p) * (math.pi * math.tan(math.pi * s))
        lam_closed = -math.sin(phi)
        closed.append(term + lam_closed)
        term_alt = (1.0 / rho_p) * (-math.pi * math.tan(math.pi * phi)) if abs(
            math.cos(math.pi * phi)
        ) > 1e-12 else math.inf
        alt.append(term_alt + lam_closed)
    return {
        "phis": list(phis),
        "max_residual": max(abs(v) for v in closed),
        "alt_reading_max_residual": max(abs(v) for v in alt),
        "residuals": closed,
    }


def omega_identity_pv_check(phi: float) -> dict:
    """Numeric principal-value quadrature of the Hilbert transform against
    its closed form -sin phi at one point."""
    pv = sc_hilbert_pv(phi)
    return {"pv": pv, "closed": -math.sin(phi), "residual": abs(pv + math.sin(phi))}


def affine_wulff_check(b: float) -> dict:
    """Thermodynamic Gelfand-Tsetlin volume identity for affine boundary
    data rho(r) = b r (b < 0): the minimal Wulff energy (1/2) min over
    |f| < |b| of sigma_tilted(b, f) must equal
    -int int_{s<t} log(|b| (t-s)) - 3/4, both sides here evaluated
    numerically."""
    if not b < 0.0:
        raise DomainError("affine boundary slope must be negative")
    # the minimum over f: cos is maximal at f = 0; verify by grid + refine
    fs = np.linspace(-abs(b) * 0.999, abs(b) * 0.999, 2001)
    vals = np.array([bead_sigma_tilted(b, float(f)) for f in fs])
    f_star = float(fs[np.argmin(vals)])
    lhs = 0.5 * float(np.min(vals))
    # int_0^1 (1-w) log(|b| w) dw = log|b| int_0^1 (1-w) dw + int_0^1 (1-w) log w dw;
    # the log singularity goes into quad's algebraic-log weight (1-w) log w
    log_part, _ = scipy.integrate.quad(
        lambda w: 1.0, 0.0, 1.0, weight="alg-loga", wvar=(0.0, 1.0)
    )
    rhs = -(0.5 * math.log(abs(b)) + log_part) - 0.75
    return {
        "lhs": lhs,
        "rhs": rhs,
        "residual": abs(lhs - rhs),
        "argmin": f_star,
    }


def bead_scaling_residual(p: float, q: float, lam: float) -> float:
    """|sigma(lam p, lam q) - (-log lam + sigma(p, q))| inside the cone."""
    a = bead_sigma_tilted(lam * p, lam * q)
    b_ = bead_sigma_tilted(p, q)
    if a == math.inf or b_ == math.inf:
        raise DomainError("scaling check needs cone-interior points")
    return abs(a - (-math.log(lam) + b_))


# ---------------------------------------------------------------------------
# Random-matrix law and Johansson checks
# ---------------------------------------------------------------------------


# the fraction of eigenvalue indices each quantile gap trims at either end
# (0.05 as written: (1 - 0.9) / 2 rounds below it, to a trim of 0 at m = 20)
_GUE_TRIM = 0.0
_LUE_TRIM = 0.05


def _sup_gap(eigs: np.ndarray, quantile, trim: float) -> float:
    """max |eigs[i] - quantile(i)| over the indices left once int(trim size)
    are trimmed at either end, calling quantile once per index, in order."""
    size = len(eigs)
    lo = int(trim * size)
    return max(abs(eigs[i] - quantile(i)) for i in range(lo, size - lo))


def gue_quantile_gap(n: int, seed: int) -> float:
    """Sup gap between scaled GUE eigenvalues and the semicircle quantiles
    at mass (i - 1/2)/n, over all indices; n >= 1."""
    if n < 1:
        raise DomainError("gue_quantile_gap needs n >= 1")
    eigs = gue_sample(n, seed) / math.sqrt(n)
    return _sup_gap(eigs, lambda i: sc_quantile((i + 0.5) / n), _GUE_TRIM)


def lue_quantile_gap(n: int, m: int, seed: int) -> float:
    """Sup gap between scaled LUE eigenvalues and mp_quantile(c, alpha) at
    alpha = c (i - 1/2)/m, over the central 90% of indices; 1 <= m <= n."""
    if not 1 <= m <= n:
        raise DomainError("lue_quantile_gap needs 1 <= m <= n")
    c = m / n
    eigs = lue_sample(n, m, seed) / n
    return _sup_gap(eigs, lambda i: mp_quantile(c, c * (i + 0.5) / m), _LUE_TRIM)


def johansson_check(n: int, m: int, k: int, samples: int, seed: int) -> dict:
    """Two-oracle comparison of L^N(m, k) with the sum of the k largest
    LUE(m; n) eigenvalues: means within combined stderr, two-sample KS."""
    lvals = last_passage_batch(_replica_lanes(seed, 0x10, samples), n, m, k)
    evals = lue_sample_batch(n, m, _replica_lanes(seed, 0x20, samples))[:, :k].sum(axis=1)
    mean_l, se_l = map(float, _mean_stderr(lvals))
    mean_e, se_e = map(float, _mean_stderr(evals))
    combined = math.hypot(se_l, se_e)
    ks = _ks_two_sample(lvals, evals)
    return {
        "mean_L": mean_l,
        "mean_eigsum": mean_e,
        "stderr_L": se_l,
        "stderr_eigsum": se_e,
        "zscore": (mean_l - mean_e) / combined,
        "ks": ks,
        "ok_means": abs(mean_l - mean_e) <= 3.0 * combined,
    }


def _ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    a = np.sort(a)
    b = np.sort(b)
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / len(a)
    fb = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.abs(fa - fb).max())


# ---------------------------------------------------------------------------
# Diagonal fluctuations at mu = kappa N^2
# ---------------------------------------------------------------------------


_FLUCT_SITES = 1 << 18  # sites per omega_grid call of fluctuation_mc: blocks near 2 MB


def fluctuation_mc(kappa: float, n: int, t_grid, samples: int, seed: int) -> dict:
    """Samples of H(t,t) = t N^2 log(kappa N^2) + log tau(tN, tN) along the
    diagonal, where tau(m, m) is the full-rectangle product; reports the
    variance of sqrt(kappa) H against t, increment correlations over
    consecutive t-blocks, the empirical mean against the t/(2 kappa)
    offset, and Gaussianity diagnostics.  t_grid must be nonempty, with
    floor(t N) strictly increasing within [1, N]: H(0, 0) holds no weights,
    tau(m, m) needs m <= N, and a repeated m gives a zero increment.  The
    replica lanes are sliced by _lane_blocks into blocks of about
    _FLUCT_SITES sites, one loggamma_rectangle call each."""
    lanes = _replica_lanes(seed, 0xF1, samples)
    if not kappa > 0.0:
        raise DomainError("fluctuation_mc needs kappa > 0")
    ms = [int(math.floor(t * n)) for t in t_grid]
    if not ms or ms[0] < 1 or ms[-1] > n or any(a >= b for a, b in zip(ms, ms[1:])):
        raise DomainError("fluctuation_mc needs a nonempty t_grid with floor(t N) strictly increasing in [1, N]")
    mu = kappa * n * n
    m_max = max(ms)
    log_mu = math.log(mu)
    h_vals = np.empty((samples, len(ms)))
    for block in _lane_blocks(samples, n * m_max, _FLUCT_SITES):
        lw = loggamma_rectangle(lanes[block], mu, n, m_max)
        row_cum = (lw + log_mu).sum(axis=1).cumsum(axis=1)  # over x2 rows
        h_vals[block] = row_cum[:, np.array(ms) - 1]
    scaled = math.sqrt(kappa) * h_vals
    var = scaled.var(axis=0, ddof=1)
    mean = scaled.mean(axis=0)
    t_arr = np.array([m / n for m in ms])
    # increments over consecutive blocks use disjoint weight rows
    incr = np.diff(scaled, axis=1, prepend=0.0)
    corr = [float(np.corrcoef(incr[:, a], incr[:, a + 1])[0, 1]) for a in range(incr.shape[1] - 1)]
    central = scaled[:, -1] - mean[-1]
    m2 = float((central**2).mean())
    skew = float((central**3).mean() / m2**1.5)
    kurt = float((central**4).mean() / m2**2 - 3.0)
    return {
        "t": t_arr,
        "var": var,
        "var_over_t": var / t_arr,
        "mean": mean,
        # E[H(t,t)] = t N^2 (log mu - psi0(mu)) -> t/(2 kappa), i.e. the
        # scaled process has mean t/(2 sqrt(kappa)): an offset, not zero
        "mean_offset_pred": t_arr / (2.0 * math.sqrt(kappa)),
        "incr_corr": corr,
        "skewness": skew,
        "excess_kurtosis": kurt,
        "samples": samples,
    }


def superfactorial_asymptotic_check(p: float, n: int) -> dict:
    """|(1/N^2) log H(pN) - (p^2/2 log p + p^2/2 log N - 3 p^2/4)|."""
    pn = int(round(p * n))
    if pn < 2:
        raise DomainError("need p*N >= 2")
    exact = log_superfactorial(pn) / (n * n)
    pred = 0.5 * p * p * math.log(p) + 0.5 * p * p * math.log(n) - 0.75 * p * p
    return {"exact": exact, "predicted": pred, "residual": abs(exact - pred)}

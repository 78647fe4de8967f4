"""Stochastic interfaces built from the inverse-gamma polymer.

phi(i,j), a log ratio of tau partition functions, is exactly the geometric
RSK (gRSK) output pattern of the N x N weight matrix read from the far
corner: phi(i,j) = T[N+1-i, N+1-j].  gRSK is the engine, batched over
environments; the LGV tau tables of ``polymer.TauTable`` remain only as
the small-size oracle (``phi_inversion_residual``).  The law of phi is a
Gibbs measure on the N x N square with exponential interaction along
north/east edges, a linear diagonal weight of strength mu, and a pinning
term exp(-phi(N,N)) at the corner, normalized by Gamma(mu)^(N^2).  The
Metropolis sampler targets the same density, giving a second, independent
route to its moments.  The large-mu tilt theta and its deterministic limit
theta_min (the minimizer of the discrete energy), the small-mu coupling to
last passage, Gelfand-Tsetlin volumes, and the GL(2) Whittaker integral
live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .environment import UniformField, derive_seed
from .errors import DomainError
from .lattice import macmahon_log_count
from .polymer import TauTable, corner_diagonal_sum, grsk, last_passage, loggamma_rectangle
from .special import bessel_k0, log_factorial, log_gamma, log_superfactorial


@dataclass
class InterfaceGrid:
    """Real-valued function on the N x N square; 1-based accessors."""

    n: int
    values: np.ndarray  # shape (n, n); [i-1, j-1] holds phi(i, j)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.n, self.n):
            raise DomainError("grid shape must be (n, n)")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("interface values must be finite")

    def at(self, i: int, j: int) -> float:
        return float(self.values[i - 1, j - 1])

    def diagonal(self) -> np.ndarray:
        return np.diagonal(self.values).copy()

    def edge_differences(self):
        """Differences phi(y) - phi(x) over the directed north/east edges."""
        v = self.values
        east = v[1:, :] - v[:-1, :]
        north = v[:, 1:] - v[:, :-1]
        return east, north


# ---------------------------------------------------------------------------
# The polymer construction of phi
# ---------------------------------------------------------------------------


def _phi_batch(fields, mu: float, n: int) -> np.ndarray:
    """phi for each field, stacked along a leading axis: one batched gRSK
    call, phi(i, j) = T[N+1-i, N+1-j]."""
    logw = np.stack([loggamma_rectangle(f, mu, n, n) for f in fields])
    phi = grsk(logw)[..., ::-1, ::-1]
    if not np.all(np.isfinite(phi)):
        raise DomainError("interface values must be finite")
    return phi


def build_phi(field: UniformField, mu: float, n: int) -> InterfaceGrid:
    """phi(i,j) = log(tau(N-j+i, i) / tau(N-j+i, i-1)) above the diagonal
    and the tilde version below it, read off the gRSK pattern of the
    N x N weights; no determinant is formed, so no precision is lost."""
    return InterfaceGrid(n, _phi_batch([field], mu, n)[0])


def phi_inversion_residual(field: UniformField, mu: float, n: int) -> float:
    """max over (m, k) of |sum_{i<=k} phi(i, N-m+i) - log tau(m, k)|.

    The left side comes from gRSK and the right from LGV determinants, so
    this exact identity pins the two routes together; residuals reflect only
    float rounding (and the cancellation of the LGV route).
    """
    t = TauTable(field, mu, n)
    grid = build_phi(field, mu, n)
    worst = 0.0
    for m in range(1, n + 1):
        for k in range(1, m + 1):
            s = sum(grid.at(i, n - m + i) for i in range(1, k + 1))
            worst = max(worst, abs(s - t.log_tau(m, k)))
    return worst


def interface_log_density(grid: InterfaceGrid, mu: float) -> float:
    """Log of the interface density of Prop-interface form:
    -sum_edges e^(dphi) - mu sum_i phi(i,i) - e^(-phi(N,N)) - N^2 log Gamma(mu)."""
    east, north = grid.edge_differences()
    v = grid.values
    return float(
        -np.exp(east).sum()
        - np.exp(north).sum()
        - mu * np.diagonal(v).sum()
        - math.exp(-v[-1, -1])
        - grid.n**2 * log_gamma(mu)
    )


def _local_log_density_delta(
    v: np.ndarray, mu: float, n: int, i: int, j: int, new: float
) -> float:
    """Change in log density when site (i, j) (0-based) moves to `new`;
    only the terms touching the site are evaluated."""
    old = v[i, j]
    delta = 0.0
    if i > 0:
        delta -= math.exp(new - v[i - 1, j]) - math.exp(old - v[i - 1, j])
    if i < n - 1:
        delta -= math.exp(v[i + 1, j] - new) - math.exp(v[i + 1, j] - old)
    if j > 0:
        delta -= math.exp(new - v[i, j - 1]) - math.exp(old - v[i, j - 1])
    if j < n - 1:
        delta -= math.exp(v[i, j + 1] - new) - math.exp(v[i, j + 1] - old)
    if i == j:
        delta -= mu * (new - old)
    if i == n - 1 and j == n - 1:
        delta -= math.exp(-new) - math.exp(-old)
    return delta


def metropolis_log_accept(
    grid: InterfaceGrid, mu: float, site: tuple[int, int], step: float
) -> float:
    """log acceptance probability of moving phi(site) by step (symmetric
    random-walk proposal): min(0, delta log density)."""
    i, j = site
    delta = _local_log_density_delta(
        grid.values, mu, grid.n, i - 1, j - 1, grid.at(i, j) + step
    )
    return min(0.0, delta)


def gibbs_sampler(
    n: int,
    mu: float,
    sweeps: int,
    seed: int,
    step: float = 1.0,
    tune: bool = True,
    burn_in: int | None = None,
):
    """Metropolis single-site random-walk chain targeting the interface
    density; yields one InterfaceGrid snapshot per sweep (N^2 updates).

    The proposal scale is tuned toward 0.3-0.5 acceptance during burn-in.
    Chain randomness comes from a Philox counter generator on the seed, so
    runs are reproducible.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    v = np.full((n, n), -_digamma_like(mu))
    if burn_in is None:
        burn_in = max(10, sweeps // 5)
    accepted = 0
    proposed = 0
    for sweep in range(sweeps + burn_in):
        sites_i = rng.integers(0, n, size=n * n)
        sites_j = rng.integers(0, n, size=n * n)
        steps = step * (2.0 * rng.random(n * n) - 1.0)
        log_us = np.log(rng.random(n * n))
        for s in range(n * n):
            i, j = int(sites_i[s]), int(sites_j[s])
            new = v[i, j] + float(steps[s])
            delta = _local_log_density_delta(v, mu, n, i, j, new)
            proposed += 1
            if delta >= 0.0 or log_us[s] < delta:
                v[i, j] = new
                accepted += 1
        if tune and sweep < burn_in and (sweep + 1) % 5 == 0:
            rate = accepted / max(proposed, 1)
            if rate < 0.3:
                step *= 0.8
            elif rate > 0.5:
                step *= 1.25
            accepted = proposed = 0
        if sweep >= burn_in:
            yield InterfaceGrid(n, v.copy())


def _digamma_like(mu: float) -> float:
    from .special import digamma

    return digamma(mu)


def integrated_autocorrelation(series: np.ndarray, c: float = 6.0) -> float:
    """Sokal windowed estimate of the integrated autocorrelation time."""
    x = np.asarray(series, dtype=float)
    x = x - x.mean()
    m = len(x)
    if m < 8 or np.allclose(x, 0.0):
        return 1.0
    f = np.fft.rfft(x, n=2 * m)
    acov = np.fft.irfft(f * np.conj(f))[:m] / np.arange(m, 0, -1)
    if acov[0] <= 0:
        return 1.0
    rho = acov / acov[0]
    tau = 1.0
    for w in range(1, m // 2):
        tau = 1.0 + 2.0 * rho[1 : w + 1].sum()
        if w >= c * tau:
            break
    return max(tau, 1.0)


def gibbs_moments(n: int, mu: float, sweeps: int, seed: int) -> dict:
    """Per-site means, IAT-corrected standard errors, and acceptance rate
    from one Metropolis run."""
    samples = np.empty((sweeps, n, n))
    count = 0
    for grid in gibbs_sampler(n, mu, sweeps, seed):
        samples[count] = grid.values
        count += 1
    flat = samples.reshape(sweeps, n * n)
    means = flat.mean(axis=0)
    stderr = np.empty(n * n)
    iats = np.empty(n * n)
    for s in range(n * n):
        iat = integrated_autocorrelation(flat[:, s])
        iats[s] = iat
        stderr[s] = flat[:, s].std(ddof=1) * math.sqrt(iat / sweeps)
    return {
        "mean": means.reshape(n, n),
        "stderr": stderr.reshape(n, n),
        "iat": iats.reshape(n, n),
        "sweeps": sweeps,
    }


def phi_moments_mc(n: int, mu: float, seeds: int, seed: int) -> dict:
    """Per-site means and standard errors of phi over independent polymer
    environments; the second oracle for the interface law."""
    fields = [UniformField(derive_seed(seed, 0x1F, r)) for r in range(seeds)]
    phis = _phi_batch(fields, mu, n)
    mean = phis.mean(axis=0)
    var = phis.var(axis=0, ddof=1)
    return {"mean": mean, "stderr": np.sqrt(var / seeds), "seeds": seeds}


# ---------------------------------------------------------------------------
# Large-mu tilt and the discrete energy
# ---------------------------------------------------------------------------


def theta_rescale(grid: InterfaceGrid, mu: float) -> InterfaceGrid:
    """theta(i,j) = phi(i,j) + (2N + 1 - i - j) log mu."""
    n = grid.n
    i = np.arange(1, n + 1)
    tilt = (2 * n + 1 - (i[:, None] + i[None, :])) * math.log(mu)
    return InterfaceGrid(n, grid.values + tilt)


def theta_min(n: int) -> InterfaceGrid:
    """The deterministic large-mu limit: for i <= j
    log[(i-1)! (2N-j-i+1)! (2N-j-i)! / ((2N-j)! (N-j)! (N-i)!)],
    extended symmetrically.  Equivalently log of the ratio of path counts
    Gamma(N-j+i, i) / Gamma(N-j+i, i-1)."""
    vals = np.empty((n, n))
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            v = (
                log_factorial(i - 1)
                + log_factorial(2 * n - j - i + 1)
                + log_factorial(2 * n - j - i)
                - log_factorial(2 * n - j)
                - log_factorial(n - j)
                - log_factorial(n - i)
            )
            vals[i - 1, j - 1] = v
            vals[j - 1, i - 1] = v
    return InterfaceGrid(n, vals)


def energy_F(grid: InterfaceGrid) -> float:
    """Discrete energy e^(-theta(N,N)) + sum_diag theta + sum_edges e^(dtheta)."""
    east, north = grid.edge_differences()
    v = grid.values
    return float(
        math.exp(-v[-1, -1])
        + np.diagonal(v).sum()
        + np.exp(east).sum()
        + np.exp(north).sum()
    )


def grad_F(grid: InterfaceGrid) -> InterfaceGrid:
    """Exact gradient of energy_F in the site values."""
    v = grid.values
    n = grid.n
    g = np.zeros_like(v)
    g[np.arange(n), np.arange(n)] += 1.0
    g[-1, -1] -= math.exp(-v[-1, -1])
    east = np.exp(v[1:, :] - v[:-1, :])
    north = np.exp(v[:, 1:] - v[:, :-1])
    g[1:, :] += east
    g[:-1, :] -= east
    g[:, 1:] += north
    g[:, :-1] -= north
    return InterfaceGrid(n, g)


def theta_min_log_count_form(n: int, i: int, j: int) -> float:
    """log(#Gamma(N-j+i, i) / #Gamma(N-j+i, i-1)) for i <= j; the combinatorial
    form of theta_min used as its cross-check."""
    if not 1 <= i <= j <= n:
        raise DomainError("need 1 <= i <= j <= n")
    m = n - j + i
    num = macmahon_log_count(n, m, i)
    den = macmahon_log_count(n, m, i - 1) if i > 1 else 0.0
    return num - den


def large_mu_convergence(n: int, mu_list, seeds: int, seed: int) -> dict:
    """Sup-norm distance of the tilted interface from theta_min per sample,
    for each mu; medians should decrease along an increasing mu_list."""
    tmin = theta_min(n).values
    fields = [UniformField(derive_seed(seed, 0x3C, r)) for r in range(seeds)]
    sup = np.empty((len(mu_list), seeds))
    for a, mu in enumerate(mu_list):
        for r, phi in enumerate(_phi_batch(fields, mu, n)):
            th = theta_rescale(InterfaceGrid(n, phi), mu).values
            sup[a, r] = np.abs(th - tmin).max()
    med = np.median(sup, axis=1)
    return {
        "mu": list(mu_list),
        "sup_norms": sup,
        "medians": med,
        "decreasing": bool(np.all(np.diff(med) < 0)),
        "scaled_by_sqrt_mu": [float(m) * math.sqrt(mu) for m, mu in zip(med, mu_list)],
    }


def small_mu_coupling(n: int, m: int, k: int, mu_list, seeds: int, seed: int) -> dict:
    """Per-seed |mu log tau(m,k) - L(m,k)| with coupled exponential weights,
    for each mu in decreasing order; also returns the samples for
    distributional comparison."""
    if not 1 <= k <= m <= n:
        raise DomainError("need 1 <= k <= m <= N")
    fields = [UniformField(derive_seed(seed, 0x5C, r)) for r in range(seeds)]
    lvals = np.array([last_passage(f, n, m, k) for f in fields])
    mu_log_tau = np.empty((len(mu_list), seeds))
    for a, mu in enumerate(mu_list):
        logw = np.stack([loggamma_rectangle(f, mu, n, m) for f in fields])
        mu_log_tau[a] = mu * corner_diagonal_sum(grsk(logw), k)
    gaps = np.abs(mu_log_tau - lvals)
    mean_gaps = gaps.mean(axis=1)
    frac_down = [
        float(np.mean(gaps[a + 1] < gaps[a])) for a in range(len(mu_list) - 1)
    ]
    return {
        "mu": list(mu_list),
        "gaps": gaps,
        "mean_gaps": mean_gaps,
        "frac_decreasing": frac_down,
        "mu_log_tau": mu_log_tau,
        "last_passage": lvals,
    }


# ---------------------------------------------------------------------------
# Gelfand-Tsetlin volumes and the GL(2) Whittaker integral
# ---------------------------------------------------------------------------


def is_gt_pattern(tri: dict[tuple[int, int], float], n: int, tol: float = 0.0) -> bool:
    """Interlacing on the triangle {i <= j}: values do not increase along
    north or east steps (the finite-energy set of the hard-monotonicity
    interaction, and what Cauchy interlacing gives the minors process)."""
    for (i, j), v in tri.items():
        if (i + 1, j) in tri and tri[(i + 1, j)] > v + tol:
            return False
        if (i, j + 1) in tri and tri[(i, j + 1)] > v + tol:
            return False
    return True


def gt_volume(lam) -> float:
    """Volume of the Gelfand-Tsetlin polytope with pinned diagonal lam:
    prod_{i<j} (lam_i - lam_j) / H(N) for strictly decreasing lam, else 0."""
    lam = list(lam)
    n = len(lam)
    if any(a <= b for a, b in zip(lam, lam[1:])):
        return 0.0
    log_v = 0.0
    for a in range(n):
        for b in range(a + 1, n):
            log_v += math.log(lam[a] - lam[b])
    return math.exp(log_v - log_superfactorial(n))


def whittaker_gl2(lam1: float, lam2: float) -> float:
    """GL(2) pattern integral int exp(-e^(phi - lam1) - e^(lam2 - phi)) dphi.

    Centering at (lam1+lam2)/2 shows the value is 2 K0(2 e^((lam2-lam1)/2));
    computed by trapezoid with step halving (doubly exponential decay).
    """
    center = 0.5 * (lam1 + lam2)
    half_gap = 0.5 * (lam2 - lam1)

    def integrand(u: float) -> float:
        arg1 = u + half_gap  # phi - lam1 with phi = center + u
        arg2 = -u + half_gap
        if arg1 > 709.0 or arg2 > 709.0:
            return 0.0
        return math.exp(-math.exp(arg1) - math.exp(arg2))

    # integration window: beyond |u| ~ log(745) + |half_gap| the integrand
    # underflows
    width = 8.0 + abs(half_gap)
    n = 128
    prev = math.inf
    val = 0.0
    for _ in range(14):
        h = 2.0 * width / n
        xs = [-width + i * h for i in range(n + 1)]
        s = 0.5 * (integrand(xs[0]) + integrand(xs[-1])) + sum(
            integrand(x) for x in xs[1:-1]
        )
        val = h * s
        if abs(val - prev) < 1e-13 * max(1.0, abs(val)):
            break
        prev = val
        n *= 2
    return val


def whittaker_gl2_bessel(lam1: float, lam2: float) -> float:
    """Closed Bessel form of the GL(2) pattern integral; quadrature oracle."""
    return 2.0 * bessel_k0(2.0 * math.exp(0.5 * (lam2 - lam1)))


def whittaker_measure_logdensity(lam, mu: float, n: int) -> float:
    """Log density of the diagonal marginal (the Whittaker measure with
    constant parameter mu) at lam, for n in {1, 2}:
    -e^(-lam_n) - mu sum lam + 2 log g(lam) - n^2 log Gamma(mu)."""
    lam = list(lam)
    if n not in (1, 2) or len(lam) != n:
        raise DomainError("whittaker_measure_logdensity supports n in {1, 2}")
    if n == 1:
        log_g = 0.0
    else:
        log_g = math.log(whittaker_gl2(lam[0], lam[1]))
    return (
        -math.exp(-lam[-1])
        - mu * sum(lam)
        + 2.0 * log_g
        - n * n * log_gamma(mu)
    )
